//go:build race

package load

// raceEnabled reports whether this binary was built with the race
// detector. The chaos campaign widens its tail-latency slack under it:
// the detector slows the in-process stack by 5-20x, so a slack tuned for
// native speed would only measure the instrumentation.
const raceEnabled = true
