// Package fsutil holds the one atomic file writer the result store and the
// trace store share.
package fsutil

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic installs b at path so that a reader never observes a
// partial file: the bytes go to a temporary file in path's directory (created
// if needed), which is then renamed into place. Concurrent writers of one
// path race to install their own complete content. The temporary file is
// removed on every failure. The write is not fsynced: a crash may lose the
// file, but never leaves a torn one under path.
func WriteFileAtomic(path string, b []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
