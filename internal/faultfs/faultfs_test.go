package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// writeSequence runs one full crash-safe write sequence (create, write,
// sync, close, rename, syncdir) through fs, returning the first error.
func writeSequence(fs FS, dir, final string, data []byte) error {
	tmp := filepath.Join(dir, "x.tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, filepath.Join(dir, final)); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(dir)
}

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var fs OS
	if err := writeSequence(fs, dir, "a.json", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(filepath.Join(dir, "a.json"))
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	entries, err := fs.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "a.json" {
		t.Fatalf("ReadDir = %v, %v", entries, err)
	}
}

// TestFailOnce: the first matching op fails, the retry succeeds — the
// schedule is consumed deterministically.
func TestFailOnce(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{}, FailOnce(OpRename, 0))
	if err := writeSequence(in, dir, "a.json", []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("first write sequence error = %v, want ErrInjected", err)
	}
	if err := writeSequence(in, dir, "a.json", []byte("x")); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if got := in.Injected(); got != 1 {
		t.Fatalf("Injected = %d, want 1", got)
	}
}

// TestENOSPC: every op from the trigger point onward fails with ENOSPC —
// the disk stays full until the injector is replaced.
func TestENOSPC(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{}, ENOSPC(2))
	var errs int
	for i := 0; i < 3; i++ {
		if err := writeSequence(in, dir, "a.json", []byte("x")); err != nil {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("error = %v, want ENOSPC", err)
			}
			errs++
		}
	}
	if errs != 3 {
		t.Fatalf("got %d failed sequences, want all 3 (first fails at its third op)", errs)
	}
}

// TestTornWrite: the fault writes the prefix through and fails, so the
// partial bytes are really on disk — the torn file a crash leaves behind.
func TestTornWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{}, Torn(0, 3))
	tmp := filepath.Join(dir, "torn.tmp")
	f, err := in.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdef"))
	if err == nil || n != 3 {
		t.Fatalf("torn write = %d, %v; want 3 bytes and an error", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tmp)
	if err != nil || string(got) != "abc" {
		t.Fatalf("torn file = %q, %v; want the 3-byte prefix", got, err)
	}
}

// TestCrashPoint: from the crash on, every operation fails with ErrCrashed,
// including reads — the simulated process is dead.
func TestCrashPoint(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{}, CrashAt(OpRename, 0))
	err := writeSequence(in, dir, "a.json", []byte("x"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("error = %v, want ErrCrashed", err)
	}
	if !in.Crashed() {
		t.Fatal("injector not crashed after crash-point fired")
	}
	if _, err := in.ReadFile(filepath.Join(dir, "a.json")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read error = %v, want ErrCrashed", err)
	}
	// The final file never appeared; the temp file's removal also failed
	// (the process was dead), so it is still on disk for boot recovery to
	// sweep.
	if _, err := os.Stat(filepath.Join(dir, "a.json")); !os.IsNotExist(err) {
		t.Fatalf("final file exists after crash before rename: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "x.tmp")); err != nil {
		t.Fatalf("temp file missing after crash: %v", err)
	}
}

// TestTrace: the injector records the operation order, so tests can assert
// the fsync discipline (sync before rename, directory sync after).
func TestTrace(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{})
	in.StartTrace()
	if err := writeSequence(in, dir, "a.json", []byte("x")); err != nil {
		t.Fatal(err)
	}
	want := []Op{OpCreate, OpWrite, OpSync, OpClose, OpRename, OpSyncDir}
	trace := in.Trace()
	if len(trace) != len(want) {
		t.Fatalf("trace has %d ops, want %d: %v", len(trace), len(want), trace)
	}
	for i, e := range trace {
		if e.Op != want[i] {
			t.Fatalf("trace[%d] = %s, want %s", i, e.Op, want[i])
		}
	}
}

// TestFailAfterNCount: a counted fault fires exactly Count times then lets
// the operation through — the bounded-retry scenarios of the flusher tests.
func TestFailAfterNCount(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{}, &Fault{Op: OpRename, Count: 2})
	fails := 0
	for i := 0; i < 4; i++ {
		if err := writeSequence(in, dir, "a.json", []byte("x")); err != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("fails = %d, want exactly 2", fails)
	}
}

// TestRealFSZeroAllocOverhead pins the seam's happy-path cost: writing
// through the OS implementation and through a fault-free injector allocates
// nothing beyond what package os itself does (zero allocations per Write on
// an open file). This test is the only bound on the seam's write path;
// BenchmarkServerOverhead measures the admission gate and the recovery
// frame, not snapshot writes.
func TestRealFSZeroAllocOverhead(t *testing.T) {
	dir := t.TempDir()
	buf := []byte("0123456789abcdef")

	var fs OS
	f, err := fs.Create(filepath.Join(dir, "raw"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("OS wrapper Write = %.1f allocs/op, want 0", allocs)
	}

	in := NewInjector(OS{})
	jf, err := in.Create(filepath.Join(dir, "injected"))
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := jf.Write(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("fault-free injected Write = %.1f allocs/op, want 0", allocs)
	}
}
