package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// userHZ is the unit of the utime/stime fields of /proc/<pid>/stat. The
// kernel reports them in USER_HZ, which is 100 on every Linux ABI Go
// supports, independent of the kernel's internal tick rate.
const userHZ = 100

// parseStatCPU returns utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) is parenthesised and may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ')' come fields 3 (state) onwards; utime and stime are
	// fields 14 and 15.
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// parseStatusKB returns a kB-valued field of /proc/<pid>/status (such
// as "VmRSS" or "VmHWM"), in bytes.
func parseStatusKB(b []byte, field string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status %s: %w", field, err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("proc status: no %s line", field)
}

// procCPU reads the CPU time a live process has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procRSS reads a live process's current resident set size in bytes.
func procRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(b, "VmRSS")
}
