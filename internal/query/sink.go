package query

import (
	"sync"

	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/wal"
)

// Sink is the collector's one durable-ingest path: every batch is
// appended to the write-ahead log, then folded into the engine, under
// one mutex — so log order, engine order and acceptance order coincide,
// and the engine's sequence never runs ahead of what a restart
// recovers. The farm, the shard wire front and the shard feeder all
// ingest through it.
type Sink struct {
	mu  sync.Mutex
	log *wal.Log
	eng *Engine
}

// NewSink returns a sink that persists through log (nil: no
// persistence) and folds into eng.
func NewSink(log *wal.Log, eng *Engine) *Sink {
	return &Sink{log: log, eng: eng}
}

// Ingest appends recs to the log and, only if the append succeeded,
// folds them into the engine. A refused batch is returned as the
// append's error (wal.ErrDegraded on a failing disk) and reaches
// neither. Records must not be mutated afterwards.
func (s *Sink) Ingest(recs []*honeypot.SessionRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		//lint:ignore lock-across-blocking the append-before-ingest order under one lock IS the acceptance-order invariant; hold time is bounded by the WAL's group-commit latency
		if err := s.log.Append(recs); err != nil {
			return err
		}
	}
	s.eng.Ingest(recs)
	return nil
}
