package segstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"r2t/internal/fault"
	"r2t/internal/schema"
	"r2t/internal/storage"
	"r2t/internal/value"
)

func testSchema() *schema.Schema {
	return schema.MustNew(
		&schema.Relation{Name: "R", Attrs: []string{"ID", "w"}, PK: "ID"},
		&schema.Relation{Name: "S", Attrs: []string{"ID", "r"}, PK: "ID",
			FKs: []schema.FK{{Attr: "r", Ref: "R"}}},
	)
}

func intRow(vals ...int64) storage.Row {
	row := make(storage.Row, len(vals))
	for i, v := range vals {
		row[i] = value.IntV(v)
	}
	return row
}

// requireRows asserts a table holds exactly want, in order.
func requireRows(t *testing.T, tbl *storage.Table, want []storage.Row) {
	t.Helper()
	rows, _ := tbl.Snapshot()
	if len(rows) != len(want) {
		t.Fatalf("%s: %d rows, want %d", tbl.Rel.Name, len(rows), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !value.Equal(rows[i][c], want[i][c]) {
				t.Fatalf("%s: row %d col %d = %v, want %v", tbl.Rel.Name, i, c, rows[i][c], want[i][c])
			}
		}
	}
}

// TestBootstrapAndReopen: CSV-style preloaded rows are bootstrapped into
// fresh WALs; a reopen with an empty instance replays rows and subsequent
// appends byte-for-byte, through the ordinary Append path.
func TestBootstrapAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := testSchema()
	inst := storage.NewInstance(s)
	inst.MustInsert("R", intRow(1, 10), intRow(2, 20))

	st, err := Open(dir, inst)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Bootstrapped != 2 || got.Recovered != 0 {
		t.Fatalf("stats %+v, want 2 bootstrapped", got)
	}
	// Live appends, both unchecked and checked paths.
	if err := inst.Insert("R", intRow(3, 30)); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("S", intRow(100, 1), intRow(101, 3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("S", intRow(102, 99)); err == nil {
		t.Fatal("dangling FK admitted through the store")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Insert("R", intRow(4, 40)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Close: %v, want ErrClosed", err)
	}

	inst2 := storage.NewInstance(s)
	st2, err := Open(dir, inst2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stats := st2.Stats()
	if stats.Recovered != 2 || stats.ReplayedRows != 5 || stats.TornBytes != 0 {
		t.Fatalf("reopen stats %+v, want 2 recovered / 5 rows / 0 torn", stats)
	}
	requireRows(t, inst2.Table("R"), []storage.Row{intRow(1, 10), intRow(2, 20), intRow(3, 30)})
	requireRows(t, inst2.Table("S"), []storage.Row{intRow(100, 1), intRow(101, 3)})
	if err := inst2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if segs := st2.Segments("R"); len(segs) != 2 || segs[0].Rows != 2 || segs[1].StartRow != 2 {
		t.Fatalf("R segments %+v", segs)
	}
}

// TestReplayRepairsTornTail: a WAL whose tail is cut mid-record recovers the
// intact prefix and truncates the damage away, so the next append extends a
// clean log.
func TestReplayRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	s := testSchema()
	inst := storage.NewInstance(s)
	st, err := Open(dir, inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Insert("R", intRow(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := inst.Insert("R", intRow(2, 20)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	path := filepath.Join(dir, "R.wal")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	inst2 := storage.NewInstance(s)
	st2, err := Open(dir, inst2)
	if err != nil {
		t.Fatal(err)
	}
	stats := st2.Stats()
	if stats.ReplayedRows != 1 || stats.TornBytes == 0 {
		t.Fatalf("stats %+v, want 1 replayed row and a repaired tail", stats)
	}
	requireRows(t, inst2.Table("R"), []storage.Row{intRow(1, 10)})
	if err := inst2.Insert("R", intRow(3, 30)); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	inst3 := storage.NewInstance(s)
	st3, err := Open(dir, inst3)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	requireRows(t, inst3.Table("R"), []storage.Row{intRow(1, 10), intRow(3, 30)})
}

// TestReplayRefusesInteriorCorruption: a flipped payload byte in a record
// that later records follow is corruption, not a torn tail — Open refuses,
// naming the record's offset, and leaves the file as it found it instead of
// truncating away rows that were already acknowledged as durable.
func TestReplayRefusesInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	s := testSchema()
	inst := storage.NewInstance(s)
	st, err := Open(dir, inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Insert("R", intRow(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := inst.Insert("R", intRow(2, 20)); err != nil {
		t.Fatal(err)
	}
	segs := st.Segments("R")
	st.Close()

	path := filepath.Join(dir, "R.wal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[segs[0].Off+10] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, storage.NewInstance(s))
	if err == nil {
		t.Fatal("Open dropped acknowledged rows after an interior corrupt record")
	}
	if want := fmt.Sprintf("offset %d", segs[0].Off); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %s", err, want)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, raw) {
		t.Fatal("refused replay modified the WAL")
	}
}

// TestPoisonOnFsyncFailure: after an fsync of unknown durability fails, the
// failed batch is not visible in memory and every later append on ANY table
// is refused until restart — memory never runs ahead of the log.
func TestPoisonOnFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	s := testSchema()
	inst := storage.NewInstance(s)
	st, err := Open(dir, inst)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := inst.Insert("R", intRow(1, 10)); err != nil {
		t.Fatal(err)
	}

	defer fault.Enable("segstore.sync", fault.Rule{OnHit: 1})()
	if err := inst.Insert("R", intRow(2, 20)); err == nil {
		t.Fatal("append with failing fsync admitted")
	}
	if err := st.Poisoned(); err == nil {
		t.Fatal("store not poisoned after fsync failure")
	}
	if err := inst.Insert("S", intRow(100, 1)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append to sibling table after poisoning: %v, want ErrPoisoned", err)
	}
	requireRows(t, inst.Table("R"), []storage.Row{intRow(1, 10)})
	if n := inst.Table("S").Len(); n != 0 {
		t.Fatalf("S has %d rows", n)
	}
}

// TestTornWriteNotVisible: a write torn mid-record (fault Short payload)
// fails the append, leaves memory unchanged, and a restart replays only the
// intact prefix.
func TestTornWriteNotVisible(t *testing.T) {
	dir := t.TempDir()
	s := testSchema()
	inst := storage.NewInstance(s)
	st, err := Open(dir, inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Insert("R", intRow(1, 10)); err != nil {
		t.Fatal(err)
	}
	defer fault.Enable("segstore.write", fault.Rule{OnHit: 1, Short: 5})()
	if err := inst.Insert("R", intRow(2, 20)); err == nil {
		t.Fatal("torn write admitted")
	}
	st.Close()
	fault.Disable("segstore.write")

	inst2 := storage.NewInstance(s)
	st2, err := Open(dir, inst2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Stats().TornBytes == 0 {
		t.Fatal("torn tail not repaired on reopen")
	}
	requireRows(t, inst2.Table("R"), []storage.Row{intRow(1, 10)})
}

// TestOpenRefusesNonEmptyTableWithWAL: an existing WAL plus independently
// loaded rows is ambiguous; Open must refuse rather than guess.
func TestOpenRefusesNonEmptyTableWithWAL(t *testing.T) {
	dir := t.TempDir()
	s := testSchema()
	inst := storage.NewInstance(s)
	inst.MustInsert("R", intRow(1, 10))
	st, err := Open(dir, inst)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	inst2 := storage.NewInstance(s)
	inst2.MustInsert("R", intRow(9, 90))
	if _, err := Open(dir, inst2); err == nil {
		t.Fatal("Open merged a WAL into a non-empty table")
	}
}

// TestBootstrapCrashLeavesNoWAL: a bootstrap that dies before the rename
// leaves only the tmp file; the next Open bootstraps cleanly from scratch.
func TestBootstrapCrashLeavesNoWAL(t *testing.T) {
	dir := t.TempDir()
	s := testSchema()
	inst := storage.NewInstance(s)
	inst.MustInsert("R", intRow(1, 10))

	// Die on the bootstrap fsync: tmp exists, real WAL does not.
	disable := fault.Enable("segstore.sync", fault.Rule{OnHit: 1})
	_, err := Open(dir, inst)
	disable()
	if err == nil {
		t.Fatal("Open survived an injected bootstrap fsync failure")
	}
	if _, err := os.Stat(filepath.Join(dir, "R.wal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("crashed bootstrap left a real WAL behind")
	}

	inst2 := storage.NewInstance(s)
	inst2.MustInsert("R", intRow(1, 10))
	st, err := Open(dir, inst2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := os.Stat(filepath.Join(dir, "R.wal.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale tmp file survived a successful bootstrap")
	}

	inst3 := storage.NewInstance(s)
	st3, err := Open(dir, inst3)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	requireRows(t, inst3.Table("R"), []storage.Row{intRow(1, 10)})
}

// TestLargeBatchSplitsRecords: one Append bigger than maxWALBatchRows spans
// several sealed segments but still lands atomically for replay purposes.
func TestLargeBatchSplitsRecords(t *testing.T) {
	dir := t.TempDir()
	s := testSchema()
	inst := storage.NewInstance(s)
	st, err := Open(dir, inst)
	if err != nil {
		t.Fatal(err)
	}
	n := maxWALBatchRows + 100
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = intRow(int64(i), int64(i))
	}
	if err := inst.Insert("R", rows...); err != nil {
		t.Fatal(err)
	}
	if segs := st.Segments("R"); len(segs) != 2 {
		t.Fatalf("%d segments, want 2", len(segs))
	}
	stats := st.Stats()
	if stats.Appends != 2 || stats.AppendedRows != uint64(n) || stats.Fsyncs != 1 {
		t.Fatalf("stats %+v, want 2 records / %d rows / 1 fsync", stats, n)
	}
	st.Close()

	inst2 := storage.NewInstance(s)
	st2, err := Open(dir, inst2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := inst2.Table("R").Len(); got != n {
		t.Fatalf("replayed %d rows, want %d", got, n)
	}
}
