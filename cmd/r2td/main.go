// Command r2td runs the multi-tenant differentially private query service:
// named datasets (schema + CSV directory, the cmd/r2t format) served over
// HTTP/JSON with per-dataset ε budgets that survive restarts via an
// append-only ledger, a free-replay answer cache, bounded-worker admission
// control, and a /metrics endpoint.
//
// Each -dataset flag declares one dataset as comma-separated key=value
// pairs (primary relations are +-separated):
//
//	r2td -addr :8080 -ledger r2td.ledger \
//	     -dataset "name=graph,schema=graph.schema,data=./data,eps=2.0,primary=Node"
//
// Query it:
//
//	curl -s localhost:8080/v1/query -d '{
//	  "dataset": "graph",
//	  "sql": "SELECT COUNT(*) FROM Edge WHERE src < dst",
//	  "epsilon": 0.4, "gsq": 1024
//	}'
//
// With -data-dir (or a per-dataset dir= key) datasets become durable:
// tables are backed by fsynced, checksummed write-ahead logs replayed on
// startup, and POST /v1/append accepts integrity-checked row batches that
// survive crashes — see DESIGN.md §13:
//
//	r2td -data-dir /var/lib/r2td -ledger r2td.ledger -dataset "name=graph,..."
//	curl -s localhost:8080/v1/append -d '{
//	  "dataset": "graph", "relation": "Edge", "rows": [["7", "9"]]
//	}'
//
// Repeating the exact query is served from the answer cache and charges no
// additional ε (re-releasing a published DP answer is post-processing).
// SIGTERM/SIGINT drain in-flight queries before exit; the ledger guarantees
// a kill -9 never forgets spent budget either.
//
// /healthz reports liveness; /readyz reports readiness, which additionally
// probes that the budget ledger can still fsync — a daemon whose disk died
// (or whose ledger is fail-closed after a failed append, DESIGN.md §9)
// stays alive but not ready. The R2T_FAULTS environment variable arms the
// fault-injection framework (internal/fault) for chaos testing; an armed
// binary warns on startup and must never serve production traffic.
//
// Replication (DESIGN.md §14): a primary with -repl-listen streams its
// ε-ledger and durable row batches to replicas; a replica started with
// -role=replica -primary-addr pulls that stream, serves reads and free
// replays, and redirects charges to the primary with a 409 + X-R2T-Primary.
// Failover is operator-driven: POST /v1/promote on a caught-up replica claims
// the next fencing epoch and turns it into the primary; the old primary, if
// it ever comes back, is fenced by the epoch and refuses charges.
//
//	r2td -addr :8080 -repl-listen :7070 -sync-replicas 1 -node a ...   # primary
//	r2td -addr :8081 -role replica -primary-addr host-a:7070 \
//	     -repl-listen :7071 -node b ...                                # replica
//	curl -XPOST host-b:8081/v1/promote                                 # failover
//
// Sharding (DESIGN.md §16): a router started with -role=router fronts a group
// of shard primaries. The dataset declaration carries the shard map
// (shards=name@addr pairs, +-separated, addresses are the shards' -repl-listen)
// and the partition relation whose primary key rows are hashed on:
//
//	r2td -addr :8080 -role router -dataset \
//	     "name=shop,schema=shop.schema,eps=4,primary=Customer,partition=Customer,shards=s0@host0:7070+s1@host1:7070"
//
// The router owns the group's ε-ledger, charges once per admitted request
// before scattering, and merges the shards' truncation partials so the
// released answer is bit-equal to evaluating the same query unsharded.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof" // pprof handlers on DefaultServeMux, served only on -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"r2t/internal/fault"
	"r2t/internal/server"
	"r2t/internal/shard"
)

// datasetFlags collects repeated -dataset values.
type datasetFlags []server.DatasetConfig

func (d *datasetFlags) String() string {
	names := make([]string, len(*d))
	for i, cfg := range *d {
		names[i] = cfg.Name
	}
	return strings.Join(names, ",")
}

func (d *datasetFlags) Set(v string) error {
	cfg, err := parseDatasetFlag(v)
	if err != nil {
		return err
	}
	*d = append(*d, cfg)
	return nil
}

// parseDatasetFlag parses one
// "name=N,schema=PATH,data=DIR,eps=E,primary=R1+R2,mech=M" declaration.
func parseDatasetFlag(v string) (server.DatasetConfig, error) {
	cfg := server.DatasetConfig{DataDir: "."}
	for _, field := range strings.Split(v, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return cfg, fmt.Errorf("dataset field %q: want key=value", field)
		}
		switch key {
		case "name":
			cfg.Name = val
		case "schema":
			cfg.SchemaPath = val
		case "data":
			cfg.DataDir = val
		case "eps":
			// ParseFloat accepts "NaN" and "Inf"; a non-finite total is a
			// budget that can never be exhausted.
			eps, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(eps) || math.IsInf(eps, 0) {
				return cfg, fmt.Errorf("dataset %q: bad eps %q", cfg.Name, val)
			}
			cfg.Epsilon = eps
		case "primary":
			for _, p := range strings.Split(val, "+") {
				if p = strings.TrimSpace(p); p != "" {
					cfg.Primary = append(cfg.Primary, p)
				}
			}
		case "dir":
			cfg.DurableDir = val
		case "mech":
			// Default mechanism for requests that name none: r2t, laplace,
			// fixed-tau, ls, or auto (validated on dataset load).
			cfg.DefaultMechanism = val
		case "partition":
			cfg.Partition = val
		case "shards":
			// name@addr pairs, +-separated; addr is the shard primary's
			// -repl-listen address the router scatters sub-queries to.
			for _, sh := range strings.Split(val, "+") {
				sh = strings.TrimSpace(sh)
				if sh == "" {
					continue
				}
				name, addr, ok := strings.Cut(sh, "@")
				if !ok || name == "" || addr == "" {
					return cfg, fmt.Errorf("dataset %q: bad shard %q (want name@addr)", cfg.Name, sh)
				}
				cfg.Shards = append(cfg.Shards, shard.Node{Name: name, Addr: addr})
			}
		default:
			return cfg, fmt.Errorf("dataset field %q: unknown key (want name/schema/data/eps/primary/dir/mech/partition/shards)", key)
		}
	}
	if cfg.Name == "" || cfg.SchemaPath == "" {
		return cfg, fmt.Errorf("dataset %q needs at least name= and schema=", v)
	}
	if len(cfg.Shards) > 0 && cfg.DataDir == "." {
		// A sharded dataset holds no router-local rows; drop the implicit
		// CSV directory default so the router doesn't reject its own cwd.
		cfg.DataDir = ""
	}
	if cfg.Epsilon <= 0 {
		return cfg, fmt.Errorf("dataset %q needs a positive eps= budget", cfg.Name)
	}
	return cfg, nil
}

func main() {
	var datasets datasetFlags
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		ledgerPath = flag.String("ledger", "r2td.ledger", "append-only budget ledger (framed durable log; replayed on startup)")
		workers    = flag.Int("workers", 0, "max concurrent mechanism runs (0 = GOMAXPROCS); excess requests get 429")
		execWork   = flag.Int("exec-workers", 0, "join-executor workers per query (0 = GOMAXPROCS, 1 = serial); answers are identical either way")
		pprofAddr  = flag.String("pprof-addr", "", "optional net/http/pprof listen address (e.g. 127.0.0.1:6060); keep it private — never the public -addr")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		drain      = flag.Duration("drain", 30*time.Second, "graceful shutdown deadline on SIGTERM")
		seed       = flag.Int64("seed", 0, "deterministic noise seed, TESTS ONLY (0 = cryptographically seeded per query)")
		reqLog     = flag.String("request-log", "", "append one JSON line per request (outcome, latency, stage timings) to this OPERATOR-SIDE file; never expose it to analysts")
		dataDir    = flag.String("data-dir", "", "make every dataset durable under DIR/<name>/ (WAL-backed tables, /v1/append enabled, crash recovery on startup); per-dataset dir= overrides")

		role       = flag.String("role", "primary", "node role: primary (owns the ε-ledger, admits charges), replica (pulls the primary's ledger, serves reads, redirects charges), or router (fronts a sharded cluster, owns the group ε-ledger, scatters sub-queries)")
		nodeName   = flag.String("node", "", "node name for epoch records, handshakes, and metrics (default: hostname)")
		replListen = flag.String("repl-listen", "", "primary: TCP address for the replication listener (empty = standalone). Replica: the address it will serve replicas on after /v1/promote")
		primary    = flag.String("primary-addr", "", "replica: the primary's -repl-listen address to pull from (required with -role=replica)")
		syncRepl   = flag.Int("sync-replicas", 0, "replicas that must acknowledge each charge before it is admitted (0 = async; production clusters should set 1+)")
		ackTimeout = flag.Duration("repl-ack-timeout", 5*time.Second, "how long a synchronous charge waits for replica acks before failing 503")

		shardTimeout = flag.Duration("shard-timeout", 0, "router: per-shard sub-query deadline (0 = default 5s)")
		shardHedge   = flag.Duration("shard-hedge", 0, "router: start a hedged duplicate sub-query after this silence (0 = timeout/4)")
	)
	flag.Var(&datasets, "dataset", "dataset declaration: name=N,schema=PATH,data=DIR,eps=E,primary=R1+R2,dir=WALDIR (repeatable; dir= makes the dataset durable; with -role=router add partition=REL,shards=n0@addr+n1@addr)")
	flag.Parse()
	if len(datasets) == 0 {
		fmt.Fprintln(os.Stderr, "r2td: at least one -dataset is required")
		flag.Usage()
		os.Exit(2)
	}
	if *dataDir != "" {
		for i := range datasets {
			if datasets[i].DurableDir == "" {
				datasets[i].DurableDir = filepath.Join(*dataDir, datasets[i].Name)
			}
		}
	}

	cfg := server.Config{
		Datasets:       datasets,
		LedgerPath:     *ledgerPath,
		Workers:        *workers,
		ExecWorkers:    *execWork,
		RequestTimeout: *timeout,
		Seed:           *seed,
		Role:           *role,
		NodeName:       *nodeName,
		ReplListen:     *replListen,
		PrimaryAddr:    *primary,
		SyncReplicas:   *syncRepl,
		ReplAckTimeout: *ackTimeout,
		ShardTimeout:   *shardTimeout,
		ShardHedge:     *shardHedge,
	}
	var logFile *os.File
	if *reqLog != "" {
		f, err := os.OpenFile(*reqLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			fmt.Fprintln(os.Stderr, "r2td: request log:", err)
			os.Exit(1)
		}
		logFile = f
		cfg.RequestLog = f
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "r2td:", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Profiling is opt-in and isolated: the pprof handlers live on the
	// DefaultServeMux (via the net/http/pprof import), which is served ONLY
	// on this separate listener. The public API handler above is a private
	// mux, so enabling profiling can never expose /debug/pprof/ to tenants.
	if *pprofAddr != "" {
		go func() {
			pprofSrv := &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			fmt.Printf("r2td: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "r2td: pprof:", err)
			}
		}()
	}

	// Graceful drain: stop accepting on SIGTERM/SIGINT, let in-flight
	// queries finish (they still obey their own deadlines), then close the
	// ledger.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		done <- httpSrv.Shutdown(drainCtx)
	}()

	// Chaos runs arm failpoints via R2T_FAULTS before exec. That is a
	// testing facility — injected faults break queries and can poison the
	// ledger on purpose — so an armed production binary must say so loudly.
	if fault.Active() {
		fmt.Fprintf(os.Stderr, "r2td: WARNING: fault injection armed via %s=%q — NOT for production\n",
			fault.EnvVar, os.Getenv(fault.EnvVar))
	}
	fmt.Printf("r2td: serving %s on %s (ledger %s)\n", datasets.String(), *addr, *ledgerPath)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "r2td:", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		fmt.Fprintln(os.Stderr, "r2td: drain:", err)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "r2td:", err)
		os.Exit(1)
	}
	if logFile != nil {
		logFile.Close()
	}
	fmt.Println("r2td: drained, ledger closed")
}
