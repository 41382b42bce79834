package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"r2t/internal/cache"
)

// appendDedupCap bounds the idempotency window.
const appendDedupCap = 4096

// dedupOutcome is claim's verdict for one keyed append attempt.
type dedupOutcome int

const (
	dedupLead     dedupOutcome = iota // caller should perform the append
	dedupReplay                       // already applied; re-serve the stored response
	dedupConflict                     // same id, different body: refuse
)

// appendDedup is the X-R2T-Append-Id idempotency window: a bounded LRU of
// successfully applied append ids, each remembering a hash of the body it was
// applied with and the response it produced. A retry with the same id and
// body replays the stored response without touching the WAL; the same id with
// a different body is a caller bug and conflicts. Only successes are
// remembered — a failed append leaves the id unconsumed so the caller's retry
// can lead again. Concurrent retries of one id single-flight behind the
// leader, each for as long as its own request context allows.
//
// The window is bounded (LRU), so idempotency is best-effort over the most
// recent ids: an id evicted before its retry arrives will be applied again.
// That trades exactness for bounded memory, which is the right trade for an
// at-least-once ingestion stream into an append-only store.
type appendDedup struct {
	mu  sync.Mutex
	ids *cache.LRU[string, dedupSlot] // a flight's claim carries the leader's body hash
}

// dedupSlot is one remembered success (or, as a flight's claim, one attempt).
type dedupSlot struct {
	bodyHash string
	resp     appendResponse
}

func newAppendDedup() *appendDedup {
	return &appendDedup{ids: cache.NewLRU[string, dedupSlot](appendDedupCap)}
}

// claim resolves one keyed attempt. For dedupLead the caller MUST invoke the
// returned finish exactly once: finish(resp, true) after a durable success
// (remembers it), finish(anything, false) on failure (forgets the id).
// Followers racing a leader wait for it — until ctx ends, which returns
// ctx's error — and then re-resolve against what it left behind.
func (d *appendDedup) claim(ctx context.Context, key, bodyHash string) (resp appendResponse, outcome dedupOutcome, finish func(appendResponse, bool), err error) {
	for {
		d.mu.Lock()
		if slot, ok := d.ids.Get(key); ok {
			d.mu.Unlock()
			if slot.bodyHash != bodyHash {
				return appendResponse{}, dedupConflict, nil, nil
			}
			return slot.resp, dedupReplay, nil, nil
		}
		if fl := d.ids.Join(key); fl != nil {
			// A leader is applying this id right now. A different body can
			// conflict immediately — whatever the leader's outcome, this
			// request's body disagrees with a concurrent same-id request.
			leaderHash := fl.Claim().bodyHash
			d.mu.Unlock()
			if leaderHash != bodyHash {
				return appendResponse{}, dedupConflict, nil, nil
			}
			if _, err := fl.Wait(ctx); err != nil {
				return appendResponse{}, 0, nil, err // leaders land without error: this is ctx's
			}
			continue // re-resolve: replay the leader's success, or lead afresh
		}
		fl := d.ids.Lead(key, dedupSlot{bodyHash: bodyHash})
		d.mu.Unlock()
		return appendResponse{}, dedupLead, func(r appendResponse, ok bool) {
			d.mu.Lock()
			defer d.mu.Unlock()
			if ok {
				d.ids.Put(key, dedupSlot{bodyHash: bodyHash, resp: r})
			}
			d.ids.Land(key, fl, dedupSlot{}, nil)
		}, nil
	}
}

// dedupKey builds the idempotency key: ids are scoped per (dataset, relation)
// so independent writers need not coordinate id namespaces.
func dedupKey(dataset, relation, id string) string {
	return dataset + "\x00" + relation + "\x00" + id
}

// hashAppendBody fingerprints the rows of an append request (length-prefixed,
// so field boundaries can't alias).
func hashAppendBody(rows [][]string) string {
	h := sha256.New()
	var n [8]byte
	for _, row := range rows {
		binary.LittleEndian.PutUint64(n[:], uint64(len(row)))
		h.Write(n[:])
		for _, f := range row {
			binary.LittleEndian.PutUint64(n[:], uint64(len(f)))
			h.Write(n[:])
			h.Write([]byte(f))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
