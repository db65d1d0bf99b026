package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// describeHost fingerprints the machine a result was measured on: CPU
// model, cores, GOMAXPROCS, last-level cache and the file system the
// out-of-core files live on (dir).
func describeHost(dir string) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d llc=%s fs=%s go=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), lastLevelCache(), fsType(dir), runtime.Version())
}

// cpuModel reads the first model name in /proc/cpuinfo.
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

// lastLevelCache reports the size of CPU 0's highest-level cache.
func lastLevelCache() string {
	size := "unknown"
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		size = strings.TrimSpace(string(b))
	}
	return size
}

// fsType names the file system holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
