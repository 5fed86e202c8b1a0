package fsutil

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomicInstallsAndReplaces(t *testing.T) {
	p := filepath.Join(t.TempDir(), "shard", "entry.json")
	for _, want := range []string{"first", "second, longer"} {
		if err := WriteFileAtomic(p, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("read %q, want %q", got, want)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(filepath.Dir(p), ".tmp-*")); len(left) != 0 {
		t.Errorf("leftover temp files: %v", left)
	}
}

// TestWriteFileAtomicFailureLeavesNoTemp: a rename onto a directory fails
// after the temp file was written; the temp file must be removed.
func TestWriteFileAtomicFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "taken")
	if err := os.MkdirAll(filepath.Join(p, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(p, []byte("x")); err == nil {
		t.Fatal("install over a non-empty directory should fail")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(left) != 0 {
		t.Errorf("leftover temp files: %v", left)
	}
}
