package exec

// Fixtures shared with the external test package, which can import the
// truncation layer that sits on top of this one.
var (
	GraphSchema        = graphSchema
	GraphInstance      = graphInstance
	StarSchema         = starSchema
	RandomStarInstance = randomStarInstance
	StarQueries        = starQueries
)

const (
	EdgeCountSQL = edgeCountSQL
	TriangleSQL  = triangleSQL
)
