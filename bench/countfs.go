package bench

import (
	"sync/atomic"

	"repro/internal/faultfs"
)

// countingFS passes every operation to the wrapped filesystem and counts
// what snapshot persistence costs: bytes written, file and directory
// fsyncs, creates and renames.
type countingFS struct {
	faultfs.FS
	bytes, fileSyncs, dirSyncs, creates, renames atomic.Int64
}

func (c *countingFS) Create(name string) (faultfs.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	c.creates.Add(1)
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldpath, newpath)
}

func (c *countingFS) SyncDir(dir string) error {
	c.dirSyncs.Add(1)
	return c.FS.SyncDir(dir)
}

// fsyncs counts file and directory syncs together.
func (c *countingFS) fsyncs() int64 { return c.fileSyncs.Load() + c.dirSyncs.Load() }

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.fileSyncs.Add(1)
	return f.File.Sync()
}
