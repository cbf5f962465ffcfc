package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"

	"xmtgo/internal/config"
)

// hostClass records what a number depends on besides the code: numbers
// compare only within one host class.
func hostClass() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":  cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// funcBackend names the functional-mode backend a config selects, resolving
// the empty default the way the config package documents it.
func funcBackend(c config.Config) string {
	if c.FuncBackend == "" {
		return config.FuncBackendInterp
	}
	return c.FuncBackend
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's CPU time so far, user plus system. Time the
// hypervisor gives to other guests (steal) is not in it.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	case 0x2fc12fc1:
		return "zfs"
	}
	return "unknown"
}
