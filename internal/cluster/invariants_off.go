//go:build !invariants

package cluster

// PoolState is embedded in pooled protocol headers. Built with -tags
// invariants it carries the recycled mark the freelists set and check
// (see invariants_on.go); in a normal build it is empty and every check
// compiles to nothing.
type PoolState struct{}

func (*PoolState) CheckLive(string) {}

func retire[T any](*T)                  {}
func reuse[T any](*T)                   {}
func retireSlice[T any](_ []T, _ [][]T) {}
func reuseSlice[T any]([]T)             {}
