//go:build !invariants

package dsm

// PoolState is embedded in pooled protocol headers. Built with -tags
// invariants it carries the recycled mark the freelists set and check
// (invariants_on.go); otherwise it is empty and the checks are no-ops.
type PoolState struct{}

const Invariants = false // whether the build carries the lifecycle checks

func (*PoolState) CheckLive(string) {}

func (*Host) checkDecline(*Msg) {}

type poolCount struct{}

func (poolCount) inc() {}

func retire[T any](*T)                         {}
func reuse[T any](*T)                          {}
func retireSlice[T byte | int](_ []T, _ [][]T) {}

// poison and checkPoison mark and verify retired buffers under the tag.
func poison[T byte | int]([]T)      {}
func checkPoison[T byte | int]([]T) {}
