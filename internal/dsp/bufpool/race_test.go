//go:build race

package bufpool

// raceEnabled lets tests whose assertions are meaningless under the race
// detector (allocation pins: race instrumentation allocates) skip
// themselves.
const raceEnabled = true
