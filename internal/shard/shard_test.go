package shard

import (
	"context"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"r2t/internal/repl"
	"r2t/internal/schema"
	"r2t/internal/truncation"
	"r2t/internal/value"
)

func shopSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := schema.New(
		&schema.Relation{Name: "Customer", Attrs: []string{"ID"}, PK: "ID"},
		&schema.Relation{Name: "Orders", Attrs: []string{"cid", "price"},
			FKs: []schema.FK{{Attr: "cid", Ref: "Customer"}}},
		&schema.Relation{Name: "Catalog", Attrs: []string{"sku"}, PK: "sku"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoutingClassification(t *testing.T) {
	r, err := NewRouting(shopSchema(t), "Customer")
	if err != nil {
		t.Fatal(err)
	}
	if rt := r.Route("Customer"); rt.Kind != ByPK || rt.Attr != "ID" {
		t.Fatalf("Customer route = %+v", rt)
	}
	if rt := r.Route("Orders"); rt.Kind != ByFK || rt.Attr != "cid" {
		t.Fatalf("Orders route = %+v", rt)
	}
	if rt := r.Route("Catalog"); rt.Kind != Broadcast {
		t.Fatalf("Catalog route = %+v", rt)
	}
	cols := r.PartitionCols()
	if cols["Customer"] != "ID" || cols["Orders"] != "cid" || len(cols) != 2 {
		t.Fatalf("PartitionCols = %v", cols)
	}
}

func TestRoutingRejectsUnshardableSchemas(t *testing.T) {
	// Edge-DP shape: two FKs into the partition relation.
	edges, err := schema.New(
		&schema.Relation{Name: "Node", Attrs: []string{"ID"}, PK: "ID"},
		&schema.Relation{Name: "Edge", Attrs: []string{"src", "dst"},
			FKs: []schema.FK{{Attr: "src", Ref: "Node"}, {Attr: "dst", Ref: "Node"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouting(edges, "Node"); err == nil {
		t.Fatal("two-FK schema accepted")
	}
	// FK chain through a partitioned relation.
	chain, err := schema.New(
		&schema.Relation{Name: "P", Attrs: []string{"ID"}, PK: "ID"},
		&schema.Relation{Name: "Mid", Attrs: []string{"mid", "pid"}, PK: "mid",
			FKs: []schema.FK{{Attr: "pid", Ref: "P"}}},
		&schema.Relation{Name: "Leaf", Attrs: []string{"m"},
			FKs: []schema.FK{{Attr: "m", Ref: "Mid"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouting(chain, "P"); err == nil {
		t.Fatal("FK chain through a partitioned relation accepted")
	}
	if _, err := NewRouting(shopSchema(t), "Missing"); err == nil {
		t.Fatal("unknown partition relation accepted")
	}
}

func TestOwnerOfDeterministicAndCanonical(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for i := int64(0); i < 200; i++ {
			a := OwnerOf(value.IntV(i), n)
			b := OwnerOf(value.IntV(i), n)
			if a != b || a < 0 || a >= n {
				t.Fatalf("OwnerOf(%d, %d) unstable or out of range: %d, %d", i, n, a, b)
			}
			// Integral floats collapse to their int key, like join keys do.
			if f := OwnerOf(value.FloatV(float64(i)), n); f != a {
				t.Fatalf("OwnerOf float %d != int owner (%d vs %d)", i, f, a)
			}
		}
	}
	// Spread sanity: 200 keys over 4 shards should hit every shard.
	hits := make([]int, 4)
	for i := int64(0); i < 200; i++ {
		hits[OwnerOf(value.IntV(i), 4)]++
	}
	for s, h := range hits {
		if h == 0 {
			t.Fatalf("shard %d received no keys", s)
		}
	}
}

func TestRouteRow(t *testing.T) {
	r, err := NewRouting(shopSchema(t), "Customer")
	if err != nil {
		t.Fatal(err)
	}
	owner, bc, err := r.RouteRow("Orders", []value.V{value.IntV(7), value.IntV(100)}, 4)
	if err != nil || bc {
		t.Fatalf("RouteRow Orders: %d, %v, %v", owner, bc, err)
	}
	if want := OwnerOf(value.IntV(7), 4); owner != want {
		t.Fatalf("Orders row routed to %d, want %d", owner, want)
	}
	if _, bc, err := r.RouteRow("Catalog", []value.V{value.IntV(1)}, 4); err != nil || !bc {
		t.Fatalf("Catalog should broadcast: %v, %v", bc, err)
	}
	if _, _, err := r.RouteRow("Nope", nil, 4); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

// fakeShard serves sub-query frames like a hub would, with an optional delay
// and a call counter — enough to exercise the pool's reuse and hedging.
func fakeShard(t *testing.T, delay time.Duration, calls *atomic.Uint64) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					f, err := repl.ReadFrame(conn, 1<<20)
					if err != nil || f.Type != repl.TypeSubQuery {
						return
					}
					calls.Add(1)
					if delay > 0 {
						time.Sleep(delay)
					}
					reply := repl.Frame{Type: repl.TypePartial, Payload: append([]byte("ok:"), f.Payload...)}
					if err := repl.WriteFrame(conn, reply); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

func TestPoolCallAndReuse(t *testing.T) {
	var calls atomic.Uint64
	addr, stop := fakeShard(t, 0, &calls)
	defer stop()
	p := NewPool([]Node{{Name: "s0", Addr: addr}}, PoolConfig{Timeout: 2 * time.Second})
	defer p.Close()
	for i := 0; i < 3; i++ {
		b, err := p.Call(context.Background(), 0, []byte("q"))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(b) != "ok:q" {
			t.Fatalf("call %d reply %q", i, b)
		}
	}
	st := p.Stats()
	if st.Calls != 3 || st.CallFailures != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Reuses < 2 {
		t.Fatalf("expected pooled connections to be reused, stats %+v", st)
	}
}

func TestPoolScatterGathersInOrder(t *testing.T) {
	var calls atomic.Uint64
	a0, stop0 := fakeShard(t, 0, &calls)
	defer stop0()
	a1, stop1 := fakeShard(t, 0, &calls)
	defer stop1()
	p := NewPool([]Node{{Name: "s0", Addr: a0}, {Name: "s1", Addr: a1}}, PoolConfig{Timeout: 2 * time.Second})
	defer p.Close()
	replies, err := p.Scatter(context.Background(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 || string(replies[0]) != "ok:x" || string(replies[1]) != "ok:x" {
		t.Fatalf("replies %q", replies)
	}
}

func TestPoolHedgesSlowShard(t *testing.T) {
	var calls atomic.Uint64
	addr, stop := fakeShard(t, 300*time.Millisecond, &calls)
	defer stop()
	p := NewPool([]Node{{Name: "slow", Addr: addr}}, PoolConfig{
		Timeout: 5 * time.Second,
		Hedge:   30 * time.Millisecond,
	})
	defer p.Close()
	b, err := p.Call(context.Background(), 0, []byte("q"))
	if err != nil || string(b) != "ok:q" {
		t.Fatalf("hedged call: %q, %v", b, err)
	}
	if st := p.Stats(); st.Hedges != 1 {
		t.Fatalf("expected one hedge, stats %+v", st)
	}
}

func TestPoolFailsFastOnDeadShard(t *testing.T) {
	var calls atomic.Uint64
	addr, stop := fakeShard(t, 0, &calls)
	stop() // dead before the first call
	p := NewPool([]Node{{Name: "dead", Addr: addr}}, PoolConfig{
		Timeout: 500 * time.Millisecond, DialTimeout: 200 * time.Millisecond,
	})
	defer p.Close()
	if _, err := p.Scatter(context.Background(), []byte("q")); err == nil {
		t.Fatal("scatter to a dead shard succeeded")
	}
	st := p.Stats()
	if st.ScatterFailures != 1 || st.CallFailures != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSubQueryWireRoundTrip(t *testing.T) {
	q := SubQuery{Dataset: "d", SQL: "SELECT COUNT(*) FROM T", Primary: []string{"T"}, Epsilon: 0.5, GSQ: 1024}
	got, err := DecodeSubQuery(EncodeSubQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset != q.Dataset || got.SQL != q.SQL || got.Epsilon != q.Epsilon || got.GSQ != q.GSQ {
		t.Fatalf("round trip %+v", got)
	}
	if _, err := DecodeSubQuery([]byte("{")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := DecodeReply([]byte("nope")); err == nil {
		t.Fatal("bad reply accepted")
	}
	// A unit JSON cannot carry fails closed as an error reply that decodes.
	r, err := DecodeReply(EncodeReply(Reply{Units: []*truncation.Partial{{Sorted: []float64{math.Inf(1)}}}}))
	if err != nil || r.Err == "" || r.Units != nil {
		t.Fatalf("unencodable reply: %+v, %v", r, err)
	}
}
