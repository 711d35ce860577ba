//go:build !race

package fase_test

// See race_test.go.
const raceEnabled = false
