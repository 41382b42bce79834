package wal

import (
	"os"

	"r2t/internal/fault"
)

// faultFile is the one filesystem seam every log reads and writes through:
// an *os.File whose reads, writes, fsyncs and truncations consult the log's
// failpoints first (one atomic load each when none is armed, so R2T_FAULTS
// runs need no special build). Write also honors the Short payload: the
// first Short bytes reach the file before the injected error, modeling a
// write torn by a crash or a full disk — the state a chaos test replays.
type faultFile struct {
	*os.File
	read, write, sync, truncate string // "<site>.read", ...
}

// openFile opens (creating if absent) path behind the seam for site prefix.
func openFile(path, site string) (*faultFile, error) {
	if err := fault.Check(site + ".open"); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, read: site + ".read", write: site + ".write", sync: site + ".sync", truncate: site + ".truncate"}, nil
}

func (w *faultFile) Read(p []byte) (int, error) {
	if err := fault.Check(w.read); err != nil {
		return 0, err
	}
	return w.File.Read(p)
}

func (w *faultFile) Write(p []byte) (int, error) {
	if r, ok := fault.Fire(w.write); ok {
		if r.Panic != nil {
			panic(r.Panic)
		}
		if r.Short > 0 && r.Short < len(p) {
			n, err := w.File.Write(p[:r.Short])
			if err != nil {
				return n, err
			}
			return n, r.Err
		}
		return 0, r.Err
	}
	return w.File.Write(p)
}

func (w *faultFile) Sync() error {
	if err := fault.Check(w.sync); err != nil {
		return err
	}
	return w.File.Sync()
}

func (w *faultFile) Truncate(size int64) error {
	if err := fault.Check(w.truncate); err != nil {
		return err
	}
	return w.File.Truncate(size)
}
