package server

import (
	"path/filepath"
	"testing"

	"r2t/internal/shard"
)

// FuzzSubQuery feeds arbitrary bytes to the shard side of a scatter: the
// sub-query decoder and the uncharged partial evaluation behind it, on one
// shard's slice of the shop dataset. Anything that reaches a shard's
// replication listener lands here, so it must never panic; a payload that
// does not decode is the only transport error, and every reply it does send
// must decode as a shard.Reply.
func FuzzSubQuery(f *testing.F) {
	seeds := []shard.SubQuery{
		{Dataset: "d", SQL: "SELECT COUNT(*) FROM T", Primary: []string{"T"}, Epsilon: 0.5, GSQ: 1024},
		{Dataset: "shop", SQL: "SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK", Primary: []string{"Customer"}, Epsilon: 0.5, GSQ: 256},
		{Dataset: "shop", SQL: "SELECT SUM(o.price) FROM Customer c, Orders o WHERE c.CK = o.CK AND c.region = 'EU'", Primary: []string{"Customer"}, Epsilon: 1, GSQ: 256, Signed: true},
		{Dataset: "shop", SQL: "SELECT COUNT(*) FROM Orders o1, Orders o2 WHERE o1.sku = o2.sku", Primary: []string{"Customer"}, Epsilon: 1, GSQ: 256},
		{Dataset: "shop", SQL: "SELECT COUNT(*) FROM Customer c", Primary: []string{"Catalog"}, Epsilon: -1, GSQ: 1},
		// Finite weights whose per-customer sums overflow to +Inf.
		{Dataset: "shop", SQL: "SELECT SUM(1e308) FROM Customer c, Orders o WHERE c.CK = o.CK", Primary: []string{"Customer"}, Epsilon: 1, GSQ: 256},
		{Dataset: "shop", SQL: "SELECT SUM(o.price * 1e306) FROM Customer c, Orders o WHERE c.CK = o.CK", Primary: []string{"Customer"}, Epsilon: 1, GSQ: 256, Signed: true},
	}
	for _, q := range seeds {
		f.Add(shard.EncodeSubQuery(q))
	}
	f.Add([]byte("{"))
	f.Add([]byte(`{"dataset":"shop","sql":"SELECT","primary":null,"epsilon":1e308,"gsq":1e308,"beta":2}`))
	f.Add([]byte{0xff, 0x00, '{'})

	schemaPath := writeShopSchema(f)
	dataDir := writeShopDir(f, shardShop(genShop(7), 2)[0])
	srv, err := New(shopConfig(f, filepath.Join(f.TempDir(), "shard"), "shard0", schemaPath, dataDir, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, payload []byte) {
		out, err := srv.serveShardSubQuery(payload)
		if _, decErr := shard.DecodeSubQuery(payload); (err != nil) != (decErr != nil) {
			t.Fatalf("transport error %v for a payload whose decode error is %v", err, decErr)
		}
		if err != nil {
			return
		}
		if _, err := shard.DecodeReply(out); err != nil {
			t.Fatalf("reply does not decode: %v\n%s", err, out)
		}
	})
}
