package rt

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
)

// captureStack returns the current call stack as "file.go:line Function"
// frames, skipping the frames of this runtime and of the detector that
// calls it back, so the first frame is the instrumented access in the
// program under test. Detected inconsistencies carry these stacks into bug
// reports (paper §4.1 step 6) and the whitelist matches against them (§4.4).
func captureStack() []string {
	var pcs [32]uintptr
	n := runtime.Callers(2, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	var out []string
	for {
		frame, more := frames.Next()
		if frame.Function != "" && !strings.Contains(frame.Function, "internal/rt.") &&
			!strings.Contains(frame.Function, "internal/core.") {
			fn := frame.Function
			if i := strings.LastIndexByte(fn, '/'); i >= 0 {
				fn = fn[i+1:]
			}
			out = append(out, fmt.Sprintf("%s:%d %s", filepath.Base(frame.File), frame.Line, fn))
		}
		if !more || len(out) >= 16 {
			break
		}
	}
	return out
}
