package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// environment is recorded in every output, so a result from another machine
// is compared by shape (ratios, shares, counts) and not by absolute value.
type environment struct {
	nproc, gomaxprocs          int
	cpu, goVersion, commit, fs string
}

func readEnv(fsName string) environment {
	e := environment{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		cpu:        "unknown",
		goVersion:  runtime.Version(),
		commit:     "unknown",
		fs:         fsName,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	// The commit is known only when the binary was built inside a git
	// checkout (the go command stamps it).
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.commit = s.Value
			}
		}
	}
	return e
}

func (e environment) line(seed uint64, segments int, traced, smoke bool) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s seed=%d data_fs=%s segments=%d traced=%v smoke=%v clients=%d",
		e.nproc, e.gomaxprocs, e.cpu, e.goVersion, e.commit, seed, e.fs, segments, traced, smoke, clientCount())
}

// fsTypeName names the filesystem holding dir. fsync cost is the device's,
// not the program's, so the WAL workloads print where their files lived.
func fsTypeName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
