package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/synth"
)

// Store key namespaces. Mapping responses are keyed by their request's
// content hash, synth tables by the topology fingerprint they were searched
// on.
const (
	storeMappingPrefix = "m/"
	storeSynthPrefix   = "synth/"
)

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

// loadSynthTables replays the persisted synth tables into memory at
// startup; undecodable records are skipped, not fatal — a table is an
// optimisation, never a correctness dependency.
func (s *Service) loadSynthTables() {
	if s.store == nil {
		return
	}
	s.synthMu.Lock()
	defer s.synthMu.Unlock()
	for _, key := range s.store.Keys(storeSynthPrefix) {
		data, ok := s.store.Get(key)
		if !ok {
			continue
		}
		t, err := synth.Unmarshal(data)
		if err != nil || t.Topology != strings.TrimPrefix(key, storeSynthPrefix) {
			continue
		}
		s.synthTables[t.Topology] = t
	}
	s.stats.synthTables.Set(int64(len(s.synthTables)))
}

// SynthTable returns the held table for a topology fingerprint
// (zero-padded hex, see synth.TopologyKey).
func (s *Service) SynthTable(topology string) (*synth.Table, bool) {
	s.synthMu.Lock()
	defer s.synthMu.Unlock()
	t, ok := s.synthTables[topology]
	return t, ok
}

// SynthTopologies lists the topology fingerprints with held tables, sorted.
func (s *Service) SynthTopologies() []string {
	s.synthMu.Lock()
	defer s.synthMu.Unlock()
	out := make([]string, 0, len(s.synthTables))
	for k := range s.synthTables {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PutSynthTable merges t into the held table for its topology (entry keys
// collide by (family, p, size bucket); incoming entries win) and persists
// the merged table when a store is configured.
func (s *Service) PutSynthTable(t *synth.Table) error {
	if t == nil || t.Topology == "" {
		return fmt.Errorf("service: synth table needs a topology fingerprint")
	}
	s.synthMu.Lock()
	defer s.synthMu.Unlock()
	held, ok := s.synthTables[t.Topology]
	if !ok {
		held = &synth.Table{Topology: t.Topology}
		s.synthTables[t.Topology] = held
	}
	if err := held.Merge(t); err != nil {
		return err
	}
	s.stats.synthTables.Set(int64(len(s.synthTables)))
	if s.store == nil {
		return nil
	}
	data, err := held.Marshal()
	if err != nil {
		return err
	}
	if err := s.store.Put(storeSynthPrefix+held.Topology, data); err != nil {
		return err
	}
	s.refreshStoreGauges()
	return nil
}
