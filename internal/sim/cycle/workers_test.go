package cycle

import (
	"runtime"
	"testing"

	"xmtgo/internal/config"
)

// TestDefaultHostWorkersSerial pins the host worker resolution: the default
// (HostWorkers=0) is the serial path with no worker pool whatever GOMAXPROCS
// is, an explicit count is kept, and counts above the cluster count clamp.
func TestDefaultHostWorkersSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			workers, want int
		}{
			{0, 1},
			{4, 4},
			{1000, config.FPGA64().Clusters},
		} {
			cfg := config.FPGA64()
			cfg.HostWorkers = tc.workers
			sys, _ := buildSys(t, busyLoop, cfg)
			if got := sys.HostWorkers(); got != tc.want {
				t.Errorf("GOMAXPROCS=%d host_workers=%d: HostWorkers()=%d, want %d",
					procs, tc.workers, got, tc.want)
			}
			if serial := sys.pool == nil; serial != (tc.want == 1) {
				t.Errorf("GOMAXPROCS=%d host_workers=%d: worker pool present=%v, want %v",
					procs, tc.workers, !serial, tc.want != 1)
			}
			if got := sys.clusterMA.Workers(); got != tc.want {
				t.Errorf("GOMAXPROCS=%d host_workers=%d: cluster macro-actor runs %d workers, want %d",
					procs, tc.workers, got, tc.want)
			}
			sys.Release()
		}
	}
}
