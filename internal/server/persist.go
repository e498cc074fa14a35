package server

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"time"

	"balsabm/internal/api"
	"balsabm/internal/flow"
	"balsabm/internal/store"
)

// This file is the manager's durable side: boot-time journal replay,
// the disk tier of the result lookup, completion journaling, and the
// per-job checkpoint sink. Everything here is inert when the manager
// runs without a store.

// replayJournal rebuilds the job table from the store's journal:
// terminal jobs reappear with their recorded states (done results load
// lazily from the artifact cache), and jobs the previous process never
// finished come back queued, to be re-enqueued by NewManager ahead of
// new submissions. Runs before the workers start, so no locking.
func (m *Manager) replayJournal() []*Job {
	var resumable []*Job
	for _, rec := range m.store.Jobs() {
		var req api.JobRequest
		if err := json.Unmarshal(rec.Request, &req); err != nil {
			continue // unreadable request: nothing to resume
		}
		exec, key, err := prepare(req)
		if err != nil {
			continue // no longer valid (e.g. a design was renamed)
		}
		ctx, cancel := context.WithCancel(m.ctx)
		j := &Job{
			ID:       rec.ID,
			Req:      req,
			Key:      key,
			ctx:      ctx,
			cancel:   cancel,
			events:   newBroker(m.cfg.History),
			met:      &flow.Metrics{},
			exec:     exec,
			done:     make(chan struct{}),
			created:  parseStamp(rec.Created),
			started:  parseStamp(rec.Started),
			finished: parseStamp(rec.Finished),
		}
		switch rec.State {
		case "done":
			j.state = api.StateDone
			j.disk = true
			j.load = func() *api.JobResult { return m.loadResult(key) }
			m.sealReplayed(j, api.Event{Type: "state", State: api.StateDone, Disk: true})
		case "failed":
			j.state = api.StateFailed
			j.err = rec.Error
			m.sealReplayed(j, api.Event{Type: "state", State: api.StateFailed, Error: rec.Error})
		case "canceled":
			j.state = api.StateCanceled
			m.sealReplayed(j, api.Event{Type: "state", State: api.StateCanceled})
		default:
			// Interrupted mid-flight: back on the queue, resuming from
			// whatever stages its checkpoints cover.
			j.state = api.StateQueued
			j.started = time.Time{} // the new run stamps its own start
			if n := len(rec.Checkpoints); n > 0 {
				j.resumedFrom = rec.Checkpoints[n-1]
			}
			m.hookJob(j)
			j.events.publish(api.Event{Type: "state", State: api.StateQueued})
			m.jobsResumed.Add(1)
			resumable = append(resumable, j)
		}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		if n := idNumber(rec.ID); n > m.nextID {
			m.nextID = n
		}
	}
	return resumable
}

// sealReplayed finalizes a journal-replayed terminal job: one state
// event for late stream subscribers, then the closed-stream marker.
func (m *Manager) sealReplayed(j *Job, ev api.Event) {
	j.events.publish(ev)
	j.events.close()
	close(j.done)
	j.cancel()
}

// idNumber parses the numeric part of a job ID ("j00042" -> 42).
func idNumber(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func parseStamp(s string) time.Time {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}
	}
	return t
}

// diskLookup is the first tier of run's result lookup: the artifact
// cache on disk. Corrupt or undecodable blobs degrade to a miss (the
// store already removed a corrupt entry, so the recomputed result
// heals it).
func (m *Manager) diskLookup(j *Job) *api.JobResult {
	if m.store == nil {
		return nil
	}
	blob, err := m.store.GetResult(j.Key)
	if err != nil || blob == nil {
		return nil
	}
	var res api.JobResult
	if err := json.Unmarshal(blob, &res); err != nil {
		return nil
	}
	return &res
}

// loadResult fetches a replayed job's result blob by key (nil once GC
// evicted it).
func (m *Manager) loadResult(key string) *api.JobResult {
	blob, err := m.store.GetResult(key)
	if err != nil || blob == nil {
		return nil
	}
	var res api.JobResult
	if err := json.Unmarshal(blob, &res); err != nil {
		return nil
	}
	return &res
}

// journalDone persists a completed job: the result blob (canonical
// api.Encode bytes, so a disk-served result is byte-identical to a
// fresh one) into the artifact cache, the completion record into the
// journal, and the job's now-superseded checkpoints out of the way.
// The blob is the encoder's pooled buffer: PutResult hashes and writes
// it and keeps no reference.
func (m *Manager) journalDone(j *Job, res *api.JobResult) {
	if m.store == nil {
		return
	}
	hash := ""
	api.EncodeWith(res, func(blob []byte) {
		if ch, err := m.store.PutResult(j.Key, blob); err == nil {
			hash = ch
		}
	})
	if hash == "" {
		return
	}
	m.store.AppendDone(j.ID, hash, m.stamp(m.cfg.Clock()))
	m.store.DeleteCheckpoints(j.Key)
}

// sink builds the checkpoint sink handed to a job's executor: stage
// payloads land in the store's checkpoint directory for the job's key,
// each save is journaled (so a restart knows where to resume), and a
// "checkpoint" event reaches the job's progress stream. Nil without a
// store — the flow skips checkpointing entirely.
func (m *Manager) sink(j *Job) flow.CheckpointSink {
	if m.store == nil {
		return nil
	}
	return &jobSink{dir: m.store.Checkpoints(j.Key), m: m, j: j}
}

type jobSink struct {
	dir *store.CheckpointDir
	m   *Manager
	j   *Job
}

func (s *jobSink) Load(stage string) ([]byte, bool) { return s.dir.Load(stage) }

func (s *jobSink) Save(stage string, data []byte) {
	s.dir.Save(stage, data)
	s.m.store.AppendCheckpoint(s.j.ID, s.j.Key, stage)
	s.j.events.publish(api.Event{Type: "checkpoint", Stage: stage})
}
