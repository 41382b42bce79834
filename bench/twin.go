package main

import (
	"r2t/internal/exec"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
)

// twin is the bench-owned copy of a dataset: the generated instance itself,
// never served. Exact answers (and, in a traced run, the layer spans) come
// from calling the engine's packages on it directly.
type twin struct {
	d      *dataset
	truths map[string]truth
}

type truth struct {
	answer, tauStar float64
	err             error
}

func newTwin(d *dataset) *twin { return &twin{d: d, truths: map[string]truth{}} }

func (t *twin) known(sqlText string) bool { _, ok := t.truths[sqlText]; return ok }
func (t *twin) size() int                 { return len(t.truths) }

// truth evaluates the query exactly, once per SQL text: Q(I) and τ* (the
// largest contribution of one individual, the error scale of Theorem 5.1).
func (t *twin) truth(sqlText string, primary []string) (answer, tauStar float64, err error) {
	tr, ok := t.truths[sqlText]
	if !ok {
		tr = t.evaluate(sqlText, primary)
		t.truths[sqlText] = tr
	}
	return tr.answer, tr.tauStar, tr.err
}

func (t *twin) evaluate(sqlText string, primary []string) truth {
	parsed, err := sql.Parse(sqlText)
	if err != nil {
		return truth{err: err}
	}
	p, err := plan.Build(parsed, t.d.inst.Schema, schema.PrivateSpec{Primary: primary})
	if err != nil {
		return truth{err: err}
	}
	res, err := exec.Run(p, t.d.inst)
	if err != nil {
		return truth{err: err}
	}
	return truth{answer: res.TrueAnswer(), tauStar: res.MaxTupleSensitivity()}
}
