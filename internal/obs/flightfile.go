//go:build unix

package obs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"syscall"
)

// OpenFlightFile builds a recorder whose image is a MAP_SHARED mapping of
// the file at path, so the file is the dump: each record is in the
// kernel's page cache once it is written, and a process that dies, even
// by SIGKILL, leaves a file ReadFlightDump decodes. Surviving a host
// crash takes Sync. An existing file at path is first renamed to
// path+".prev", keeping the previous process's postmortem. The mapping
// lasts until the process exits. capacity and node are as for
// NewFlightRecorder.
func OpenFlightFile(path string, capacity int, node string) (*FlightRecorder, error) {
	if err := os.Rename(path, path+".prev"); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("keep previous flight file: %w", err)
	}
	capacity, node = flightLimits(capacity, node)
	size := flightHeaderLen(len(node)) + capacity
	file, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := file.Truncate(int64(size)); err != nil {
		file.Close()
		return nil, err
	}
	img, err := syscall.Mmap(int(file.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("map flight file %s: %w", path, err)
	}
	fr := newFlightRecorder(img, capacity, node)
	fr.file = file
	return fr, nil
}
