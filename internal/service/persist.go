package service

import (
	"bytes"
	"encoding/json"
)

// storeMappingPrefix namespaces mapping responses in the store, keyed by
// their request's content hash. Records under other prefixes are never read.
const storeMappingPrefix = "m/"

// storeGet consults the persistent store for a cache-missed key. Hits are
// decoded base responses — never Degraded, by construction of storePut —
// whose encoding is the record itself. A record read from disk that does
// not end in baseSuffix, the bytes appendJSON splices a reply over, is a
// miss: the store is a cache, and the recompute overwrites it.
func (s *Service) storeGet(key string) (*Response, bool) {
	if s.store == nil {
		return nil, false
	}
	data, ok := s.store.Get(storeMappingPrefix + key)
	var resp Response
	if !ok || !bytes.HasSuffix(data, []byte(baseSuffix)) || json.Unmarshal(data, &resp) != nil || resp.Degraded {
		s.stats.storeMisses.Inc()
		return nil, false
	}
	resp.body = data
	s.stats.storeHits.Inc()
	return &resp, true
}

// storePut persists a freshly computed base response: the record is its
// encoding. Degraded responses are never stored — they describe pressure,
// not the topology.
func (s *Service) storePut(key string, resp *Response) {
	if s.store == nil || resp.Degraded {
		return
	}
	if err := s.store.Put(storeMappingPrefix+key, resp.body); err != nil {
		return
	}
	s.stats.storeAppends.Inc()
	s.refreshStoreGauges()
}

// refreshStoreGauges mirrors the store's counters onto the service gauges.
func (s *Service) refreshStoreGauges() {
	if s.store == nil {
		return
	}
	st := s.store.Stats()
	s.stats.storeRecords.Set(int64(st.Records))
	s.stats.storeBytes.Set(st.FileBytes)
	s.stats.storeLiveBytes.Set(st.LiveBytes)
	s.stats.storeCompacts.Set(int64(st.Compactions))
}
