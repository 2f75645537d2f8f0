//go:build race

package serve

// raceEnabled reports a -race build. Its sync.Pool drops items at
// random, so allocation counts there do not describe the code.
const raceEnabled = true
