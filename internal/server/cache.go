package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"time"

	"r2t/internal/cache"
)

// fingerprint canonically identifies one DP release: the dataset, the
// normalized SQL (as rendered by the parser, so whitespace and case noise in
// the input don't matter), the mechanism parameters ε, GS_Q and β, and the
// sorted primary-relation set. Two requests with equal fingerprints ask for
// the identical release, so re-serving the recorded answer is pure
// post-processing of an already-published ε-DP output and costs zero
// additional budget (DESIGN.md, "free replay is post-processing").
//
// β is included even though the ISSUE's minimal key omits it: β shifts the
// penalty term and therefore the released value, so answers computed under
// different β are different releases and must not alias. The mechanism
// selector (with its auto-mode error target and fixed-τ parameter) is part
// of the key for the same reason: "laplace" and "r2t" on the same query are
// different releases, and an auto request with a different target may select
// a different backend.
func fingerprint(dataset, normalizedSQL string, eps, gsq, beta float64, primary []string, mechanism string, errorTarget, fixedTau float64) string {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeF64 := func(f float64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], math.Float64bits(f))
		h.Write(n[:])
	}
	writeStr(dataset)
	writeStr(normalizedSQL)
	writeF64(eps)
	writeF64(gsq)
	writeF64(beta)
	sorted := append([]string(nil), primary...)
	sort.Strings(sorted)
	for _, p := range sorted {
		writeStr(p)
	}
	writeStr(mechanism)
	writeF64(errorTarget)
	writeF64(fixedTau)
	return hex.EncodeToString(h.Sum(nil))
}

// cachedAnswer is one recorded release.
type cachedAnswer struct {
	Estimate  float64   // the ε-DP estimate as first released
	Epsilon   float64   // what the first release was charged
	Query     string    // normalized SQL, for /metrics and audit
	Mechanism string    // backend that produced the release (data-independent)
	At        time.Time // first release time
}

// answerCacheCap bounds the free-replay cache. At ~100 bytes per recorded
// release it is a few MiB — big enough that eviction is rare, small enough
// that a hostile query stream cannot grow the process without bound.
const answerCacheCap = 65536

// answerCache is the free-replay cache: fingerprint → recorded release,
// LRU-bounded at answerCacheCap. Do is the leader/follower path — one
// caller at a time runs the leader closure (which charges the budget and runs
// the mechanism), everyone racing with it waits and replays its release at
// zero additional ε, and a failed run is not cached, its followers share the
// error and the next request leads afresh. Get is the replica read path (a
// replica replays a recorded release or redirects, it never leads a run) and
// Put records a release produced and charged on the primary.
//
// Eviction is safe but never free: dropping an entry makes the next
// identical query re-run the mechanism and charge ε again — correct (each
// release pays for itself; the ledger, not the cache, is the source of truth
// for spend) but wasteful, which is why the counter behind
// r2td_answer_cache_evictions_total exists: a climbing rate means replays
// that could have been free are burning budget. The cache only ever holds
// released (already public) estimates, so neither keeping nor dropping an
// entry has any privacy effect; it is rebuilt empty on restart.
type answerCache = cache.Cache[string, cachedAnswer]

func newAnswerCache() *answerCache { return cache.New[string, cachedAnswer](answerCacheCap) }
