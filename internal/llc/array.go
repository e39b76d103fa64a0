package llc

import "repro/internal/cache"

// Array and NewArray are the names bench/probes.go compiles against. The
// benchmark is their only caller (bench/ may not change in the PR that moved
// the array into internal/cache); the next benchmark PR drops them.
type Array = cache.Cache

func NewArray(cfg cache.Config) *Array { return cache.New(cfg) }
