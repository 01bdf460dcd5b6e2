package service

// The result cache is Service.results, a memo.Table over content-addressed
// keys whose entry in flight is its key's single flight. Values are sealed
// base *Responses — the value and its encoding — immutable once published;
// readers copy the struct before stamping per-request fields. The table is
// double-bounded: by entry count (Config.CacheEntries) and by approximate
// heap bytes (Config.CacheBytes), so a handful of p=4096 responses cannot
// blow the heap while the entry bound still has hundreds of slots free. It
// keeps no degraded response.

// defaultCacheBytes bounds the result cache's memory when Config.CacheBytes
// is unset: 256 MiB, roughly 8000 p=4096 responses.
const defaultCacheBytes = 256 << 20

// approxResponseBytes estimates a cached base response's heap footprint:
// the mapping and its encoding dominate at large p, the per-size results
// and struct overhead cover the rest. Deliberately an estimate — it bounds
// growth, it does not meter an allocator.
func approxResponseBytes(r *Response) int64 {
	b := int64(160) // struct, slice headers, map entry, table entry
	b += int64(len(r.Mapping)) * 8
	b += int64(cap(r.body))
	b += int64(len(r.Results)) * 40
	b += int64(len(r.Heuristic) + len(r.Order) + len(r.Schedule) + len(r.Shard))
	if r.GraphCost != nil {
		b += 16
	}
	return b
}
