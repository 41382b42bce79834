package shard

import (
	"encoding/json"
	"fmt"

	"r2t/internal/truncation"
)

// SubQuery is the router→shard request payload (JSON inside a TypeSubQuery
// frame): one uncharged partial-evaluation of a query over the shard's slice.
// The public parameters travel with the request so every shard validates and
// shapes the evaluation exactly as the router's twin would; ε is carried for
// validation and the mechanism chooser only — shards never charge it, the
// router's ledger is the single charge authority.
type SubQuery struct {
	Dataset string   `json:"dataset"`
	SQL     string   `json:"sql"`
	Primary []string `json:"primary"`
	Epsilon float64  `json:"epsilon"`
	GSQ     float64  `json:"gsq"`
	Beta    float64  `json:"beta,omitempty"`
	Signed  bool     `json:"signed,omitempty"` // AllowNegativeSum signed split
}

// Reply is the shard→router response payload (JSON inside a TypePartial
// frame). Application-level failures travel in Err — transport stays healthy
// and the connection reusable; Units is the shard's mergeable partials in
// release order when Err is empty.
type Reply struct {
	Units []*truncation.Partial `json:"units,omitempty"`
	Err   string                `json:"err,omitempty"`
}

// EncodeSubQuery marshals a sub-query payload.
func EncodeSubQuery(q SubQuery) []byte {
	b, _ := json.Marshal(q)
	return b
}

// DecodeSubQuery unmarshals a sub-query payload.
func DecodeSubQuery(b []byte) (SubQuery, error) {
	var q SubQuery
	if err := json.Unmarshal(b, &q); err != nil {
		return SubQuery{}, fmt.Errorf("shard: undecodable sub-query: %w", err)
	}
	return q, nil
}

// EncodeReply marshals a reply payload. A reply JSON cannot carry — a unit
// holding ±Inf or NaN, e.g. per-individual sums of finite weights that
// overflowed — becomes an error reply instead, so a shard fails closed and
// every payload it sends decodes.
func EncodeReply(r Reply) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		b, _ = json.Marshal(Reply{Err: fmt.Sprintf("shard: unencodable reply: %v", err)})
	}
	return b
}

// DecodeReply unmarshals a reply payload.
func DecodeReply(b []byte) (Reply, error) {
	var r Reply
	if err := json.Unmarshal(b, &r); err != nil {
		return Reply{}, fmt.Errorf("shard: undecodable reply: %w", err)
	}
	return r, nil
}
