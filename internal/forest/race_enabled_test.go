//go:build race

package forest

func init() { raceEnabled = true }
