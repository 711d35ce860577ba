//go:build !race

package service

// See race_test.go.
const raceEnabled = false
