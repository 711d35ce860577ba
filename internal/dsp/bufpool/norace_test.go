//go:build !race

package bufpool

// See race_test.go.
const raceEnabled = false
