//go:build race

package fase_test

// raceEnabled lets allocation pins, which race instrumentation breaks,
// skip themselves.
const raceEnabled = true
