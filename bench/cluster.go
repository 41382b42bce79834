package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"r2t/internal/server"
	"r2t/internal/shard"
)

// The four topologies. Every node is an in-process r2td (server.New behind
// httptest); nodes talk to each other over real loopback TCP exactly as
// separate processes would.
const (
	topoSingle     = "single"     // one node
	topoReplicated = "replicated" // primary + 1 sync replica
	topoSharded    = "sharded"    // router + 2 shard primaries
)

const numShards = 2

type node struct {
	name string
	srv  *server.Server
	ts   *httptest.Server
}

// cluster is one topology booted over a directory tree. boot and close can
// alternate any number of times over the same tree — that is a restart.
type cluster struct {
	topo    string
	durable bool // WAL-backed tables (single and replicated only)
	base    string
	seed    int64
	reqLog  io.Writer // Config.RequestLog of the front node, nil when untraced

	data   *dataset   // full dataset (schema, primary, name)
	shards []*dataset // topoSharded: the per-shard slices

	schemaPath string
	nodes      []*node // boot order
	front      *node   // the node analysts talk to: the single node, the primary, the router
}

// writeData lays the CSV + schema files out under base. Called once per
// set-up; restarts reuse the files (and, when durable, the WALs beside them).
func (c *cluster) writeData() error {
	var err error
	if c.topo != topoSharded {
		c.schemaPath, err = writeDataset(c.data, filepath.Join(c.base, "data"))
		return err
	}
	for i, part := range c.shards {
		if c.schemaPath, err = writeDataset(part, filepath.Join(c.base, fmt.Sprintf("data%d", i))); err != nil {
			return err
		}
	}
	return nil
}

func (c *cluster) nodeConfig(name, dataDir string) server.Config {
	dir := filepath.Join(c.base, name)
	ds := server.DatasetConfig{
		Name:       c.data.name,
		SchemaPath: c.schemaPath,
		DataDir:    dataDir,
		Epsilon:    epsTotal,
		Primary:    c.data.primary,
	}
	if c.durable {
		ds.DurableDir = filepath.Join(dir, "wal")
	}
	return server.Config{
		Datasets:   []server.DatasetConfig{ds},
		LedgerPath: filepath.Join(dir, "budget.ledger"),
		Seed:       c.seed,
		NodeName:   name,
	}
}

func (c *cluster) start(cfg server.Config) (*node, error) {
	if err := os.MkdirAll(filepath.Dir(cfg.LedgerPath), 0o755); err != nil {
		return nil, err
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", cfg.NodeName, err)
	}
	n := &node{name: cfg.NodeName, srv: srv, ts: httptest.NewServer(srv.Handler())}
	c.nodes = append(c.nodes, n)
	return n, nil
}

// boot starts every node of the topology and returns once the front node can
// admit a charge (replica caught up and attached, shards listening).
func (c *cluster) boot() error {
	dataDir := filepath.Join(c.base, "data")
	switch c.topo {
	case topoSingle:
		cfg := c.nodeConfig("node", dataDir)
		cfg.RequestLog = c.reqLog
		var err error
		c.front, err = c.start(cfg)
		return err
	case topoReplicated:
		pcfg := c.nodeConfig("primary", dataDir)
		pcfg.Role, pcfg.ReplListen, pcfg.SyncReplicas = server.RolePrimary, "127.0.0.1:0", 1
		pcfg.RequestLog = c.reqLog
		p, err := c.start(pcfg)
		if err != nil {
			return err
		}
		rcfg := c.nodeConfig("replica", dataDir)
		rcfg.Role, rcfg.PrimaryAddr = server.RoleReplica, p.srv.ReplAddr()
		r, err := c.start(rcfg)
		if err != nil {
			return err
		}
		c.front = p
		return waitReady(r)
	case topoSharded:
		nodes := make([]shard.Node, len(c.shards))
		for i := range c.shards {
			name := fmt.Sprintf("shard%d", i)
			cfg := c.nodeConfig(name, filepath.Join(c.base, fmt.Sprintf("data%d", i)))
			cfg.Role, cfg.ReplListen = server.RolePrimary, "127.0.0.1:0"
			n, err := c.start(cfg)
			if err != nil {
				return err
			}
			nodes[i] = shard.Node{Name: name, Addr: n.srv.ReplAddr()}
		}
		cfg := c.nodeConfig("router", "")
		cfg.Role = server.RoleRouter
		cfg.Datasets[0].Shards, cfg.Datasets[0].Partition = nodes, c.data.primary[0]
		cfg.RequestLog = c.reqLog
		var err error
		c.front, err = c.start(cfg)
		return err
	}
	return fmt.Errorf("unknown topology %q", c.topo)
}

// waitReady polls a replica's /readyz until it has caught up with its primary.
func waitReady(n *node) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(n.ts.URL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready", n.name)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops every node in reverse boot order. Files stay for the next boot.
func (c *cluster) close() error {
	var first error
	for i := len(c.nodes) - 1; i >= 0; i-- {
		c.nodes[i].ts.Close()
		if err := c.nodes[i].srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.nodes, c.front = nil, nil
	return first
}
