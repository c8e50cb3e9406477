//go:build !race

package bench

const race = false
