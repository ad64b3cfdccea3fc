package snapshot

import (
	"os"
	"path/filepath"
)

// WriteFileDurable replaces path atomically and durably: write to a
// sibling tmp file, fsync it, rename over the target, then fsync the
// directory so the rename itself survives power loss — tmp+rename alone
// only protects against process crashes, not a torn page cache. rmccd
// writes its session checkpoints through it; the flight recorder is a
// mapped file of its own and does not.
func WriteFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if dir, derr := os.Open(filepath.Dir(path)); derr == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
}
