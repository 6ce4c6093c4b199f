package platform

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// exportedWorkloadState is a real snapshot record: the deterministic
// workload's engine state (the cut sequence is immaterial here).
func exportedWorkloadState(t *testing.T) []byte {
	t.Helper()
	e := NewEngine(vclock.NewVirtual())
	driveWorkload(t, e, 4)
	data, err := e.ExportState(0)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// oneProjectState encodes a state holding a single project whose created
// time is the zero time, so the encoding ends in that time's flag byte
// followed by the empty task, run and ban counts.
func oneProjectState(t *testing.T) []byte {
	t.Helper()
	st := &snapshotState{Seq: 3, NextProjectID: 1, Projects: []Project{{ID: 1, Name: "p", Redundancy: 1, Strategy: BreadthFirst}}}
	data, _ := st.encode()
	if !bytes.HasSuffix(data, []byte{0, 0, 0, 0}) {
		t.Fatalf("unexpected encoding tail % x", data)
	}
	return data
}

// withProjectTime replaces the single project's created time with raw
// time bytes.
func withProjectTime(t *testing.T, raw ...byte) []byte {
	t.Helper()
	data := oneProjectState(t)
	out := append([]byte(nil), data[:len(data)-4]...)
	out = append(out, raw...)
	return append(out, 0, 0, 0)
}

// withCount builds a state header followed by the given counts (and no
// records), for the absurd-count cases.
func withCount(counts ...uint64) []byte {
	out := []byte{snapshotStateVersion, 0, 0, 0, 0}
	for _, c := range counts {
		out = binary.AppendUvarint(out, c)
	}
	return out
}

// TestDecodeSnapshotStateRejects: every malformed record fails with a
// typed error instead of being misread.
func TestDecodeSnapshotStateRejects(t *testing.T) {
	valid := exportedWorkloadState(t)
	payload := func() []byte {
		st := &snapshotState{Tasks: []Task{{ID: 1, Payload: map[string]string{"a": "1", "b": "2"}}}}
		data, _ := st.encode()
		return data
	}()
	sorted := []byte("\x01a\x011\x01b\x012")
	if !bytes.Contains(payload, sorted) {
		t.Fatalf("payload entries not found in % x", payload)
	}
	zeroTime := time.Time{}.Unix()
	cases := []struct {
		name string
		data []byte
		want error
		msg  string
	}{
		{"empty", nil, ErrEventCorrupt, "empty"},
		{"json-era", []byte(`{"version":1,"seq":0,"projects":null}`), ErrFrameVersion, "JSON"},
		{"version-1", append([]byte{1}, valid[1:]...), ErrFrameVersion, "version 1"},
		{"future-version", append([]byte{3}, valid[1:]...), ErrFrameVersion, "version 3"},
		{"trailing-byte", append(append([]byte(nil), valid...), 0), ErrEventCorrupt, "trailing"},
		{"huge-project-count", withCount(1 << 40), ErrEventCorrupt, "project count"},
		{"huge-task-count", withCount(0, 1<<40), ErrEventCorrupt, "task count"},
		{"huge-run-count", withCount(0, 0, 1<<40), ErrEventCorrupt, "run count"},
		{"huge-ban-count", withCount(0, 0, 0, 1<<40), ErrEventCorrupt, "ban count"},
		{"count-past-end", withCount(3, 0, 0, 0), ErrEventCorrupt, "project count"},
		{"overlong-varint", []byte{snapshotStateVersion, 0x80, 0x00, 0, 0, 0, 0, 0, 0, 0}, ErrEventCorrupt, "non-canonical snapshot seq"},
		{"time-flag-2", withProjectTime(t, 2), ErrEventCorrupt, "non-canonical project created"},
		{"time-nanos-overflow", withProjectTime(t, binary.AppendUvarint(binary.AppendVarint([]byte{1}, 5), uint64(time.Second))...), ErrEventCorrupt, "non-canonical project created"},
		{"time-flagged-zero", withProjectTime(t, append(binary.AppendVarint([]byte{1}, zeroTime), 0, 0)...), ErrEventCorrupt, "non-canonical project created"},
		{"unsorted-payload", bytes.Replace(payload, sorted, []byte("\x01b\x012\x01a\x011"), 1), ErrEventCorrupt, "non-canonical task payload"},
		{"duplicate-payload-key", bytes.Replace(payload, sorted, []byte("\x01a\x011\x01a\x012"), 1), ErrEventCorrupt, "non-canonical task payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := decodeSnapshotState(tc.data)
			if st != nil || !errors.Is(err, tc.want) {
				t.Fatalf("decode = %v, %v; want %v", st, err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("error %q does not mention %q", err, tc.msg)
			}
		})
	}
	// Every strict prefix of a real record is a truncation.
	for n := 1; n < len(valid); n++ {
		if _, err := decodeSnapshotState(valid[:n]); !errors.Is(err, ErrEventCorrupt) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrEventCorrupt", n, len(valid), err)
		}
	}
	// The well-formed cases the mutations start from do decode.
	for _, data := range [][]byte{valid, payload, oneProjectState(t)} {
		if _, err := decodeSnapshotState(data); err != nil {
			t.Fatalf("valid record rejected: %v", err)
		}
	}
}

// FuzzDecodeSnapshotState: decoding never panics, every rejection is
// typed, and anything accepted re-encodes to exactly the input.
func FuzzDecodeSnapshotState(f *testing.F) {
	e := NewEngine(vclock.NewVirtual())
	if _, err := e.EnsureProject(ProjectSpec{Name: "fz", Redundancy: 2}); err != nil {
		f.Fatal(err)
	}
	tasks, err := e.AddTasks(1, []TaskSpec{{ExternalID: "a", Payload: map[string]string{"k": "v", "u": "w"}}, {ExternalID: "b"}})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := e.Submit(tasks[0].ID, "w1", "yes"); err != nil {
		f.Fatal(err)
	}
	if err := e.BanWorker(1, "spam"); err != nil {
		f.Fatal(err)
	}
	real, err := e.ExportState(4)
	if err != nil {
		f.Fatal(err)
	}
	empty, _ := (&snapshotState{}).encode()
	f.Add(real)
	f.Add(empty)
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeSnapshotState(data)
		if err != nil {
			if !errors.Is(err, ErrEventCorrupt) && !errors.Is(err, ErrFrameVersion) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		again, _ := st.encode()
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently:\n in  % x\n out % x", data, again)
		}
	})
}

// randomSnapshotState builds a state the way materializer.state does —
// ascending unique ids, sorted bans, high-water marks at or above every
// id — with randomized contents: nil vs empty payload maps, zero, UTC
// and non-UTC (named and unnamed) times, completed tasks and bans.
func randomSnapshotState(rng *rand.Rand) *snapshotState {
	zones := []*time.Location{time.UTC, time.FixedZone("", -5*3600), time.FixedZone("CEST", 2*3600), time.FixedZone("", 5*3600+1800)}
	randTime := func() time.Time {
		if rng.IntN(4) == 0 {
			return time.Time{}
		}
		t := time.Unix(rng.Int64N(4e9)-1e9, rng.Int64N(1e9))
		return t.In(zones[rng.IntN(len(zones))])
	}
	randStr := func() string {
		b := make([]byte, rng.IntN(6))
		for i := range b {
			b[i] = byte(rng.IntN(256))
		}
		return string(b)
	}
	st := &snapshotState{Seq: rng.Uint64N(1 << 40)}
	var id int64
	for range rng.IntN(4) {
		id += 1 + rng.Int64N(3)
		st.Projects = append(st.Projects, Project{ID: id, Name: randStr(), Presenter: randStr(),
			Redundancy: rng.IntN(5), Strategy: []Strategy{BreadthFirst, DepthFirst, ""}[rng.IntN(3)], Created: randTime()})
	}
	st.NextProjectID = id + rng.Int64N(2)
	id = 0
	for range rng.IntN(12) {
		id += 1 + rng.Int64N(3)
		t := Task{ID: id, ProjectID: rng.Int64N(5), ExternalID: randStr(), Redundancy: rng.IntN(4),
			Priority: rng.NormFloat64(), State: TaskOngoing, NumAnswers: rng.IntN(3), Created: randTime()}
		switch rng.IntN(3) {
		case 1:
			t.Payload = map[string]string{}
		case 2:
			t.Payload = map[string]string{}
			for range 1 + rng.IntN(3) {
				t.Payload[randStr()] = randStr()
			}
		}
		if rng.IntN(2) == 0 {
			t.State, t.Completed = TaskCompleted, randTime()
		}
		st.Tasks = append(st.Tasks, t)
	}
	st.NextTaskID = id + rng.Int64N(2)
	id = 0
	for range rng.IntN(20) {
		id += 1 + rng.Int64N(3)
		st.Runs = append(st.Runs, TaskRun{ID: id, TaskID: rng.Int64N(40), ProjectID: rng.Int64N(5),
			WorkerID: randStr(), Answer: randStr(), Assigned: randTime(), Finished: randTime()})
	}
	st.NextRunID = id + rng.Int64N(2)
	for p := int64(1); p <= 3; p++ {
		for w := range rng.IntN(3) {
			st.Bans = append(st.Bans, banRecord{ProjectID: p, Worker: fmt.Sprintf("w%d", w)})
		}
	}
	return st
}

// TestSnapshotStateRoundTripRandom: encode→decode→encode is the identity
// on bytes, and a checkpointer materializer seeded from a decoded record
// cuts that same record again.
func TestSnapshotStateRoundTripRandom(t *testing.T) {
	for seed := range uint64(300) {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		x, _ := randomSnapshotState(rng).encode()
		st, err := decodeSnapshotState(x)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		again, _ := st.encode()
		if !bytes.Equal(again, x) {
			t.Fatalf("seed %d: encode(decode(x)) != x", seed)
		}
		st, _ = decodeSnapshotState(x)
		cut, _ := materializerFromState(st).state(st.Seq).encode()
		if !bytes.Equal(cut, x) {
			t.Fatalf("seed %d: materializer cut != x", seed)
		}
	}
}

// reopenSnapEnv opens an existing data directory's engine without a
// checkpointer, returning it with its store's Get count at that point.
func reopenSnapEnv(t *testing.T, dir string) (*snapEnv, uint64) {
	t.Helper()
	env := openSnapEnv(t, dir, storage.SyncNever, false, nil)
	return env, env.db.Stats().Gets
}

// snapshotRecord reads the store's current snapshot payload.
func snapshotRecord(t *testing.T, db *storage.DB) (storage.SnapshotInfo, []byte) {
	t.Helper()
	info, data, ok, err := storage.ReadSnapshot(db, SnapshotPrefix)
	if err != nil || !ok {
		t.Fatalf("read snapshot: ok=%v err=%v", ok, err)
	}
	return info, data
}

// TestCheckpointerTakesRecoveredState: on restart the checkpointer takes
// the state the engine decoded, reading only the manifest (one Get)
// rather than the record a second time, and its cuts still equal the
// engine's own export. A record written after the engine was built — the
// promotion path — is read from the store instead.
func TestCheckpointerTakesRecoveredState(t *testing.T) {
	dir := t.TempDir()
	env := openSnapEnv(t, dir, storage.SyncNever, false, &CheckpointOptions{})
	driveWorkload(t, env.e, 12)
	if err := env.cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// A journal tail beyond the cut, for both engine and checkpointer to
	// replay.
	p, _, err := env.e.FindProject("beta")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.e.AddTasks(p.ID, []TaskSpec{{ExternalID: "tail"}}); err != nil {
		t.Fatal(err)
	}
	env.close()

	// cutMatchesEngine drives one more write, cuts, and checks the record
	// against the engine's own export at the journal length.
	cutMatchesEngine := func(env *snapEnv, cp *Checkpointer, ext string) {
		t.Helper()
		if _, err := env.e.AddTasks(p.ID, []TaskSpec{{ExternalID: ext}}); err != nil {
			t.Fatal(err)
		}
		if err := cp.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		info, got := snapshotRecord(t, env.db)
		want, _ := env.e.exportState(env.j.Len()).encode()
		if info.Seq != env.j.Len() || !bytes.Equal(got, want) {
			t.Fatalf("cut at %d (journal %d) differs from the engine's export", info.Seq, env.j.Len())
		}
	}

	t.Run("handed-off", func(t *testing.T) {
		env, gets := reopenSnapEnv(t, dir)
		if env.e.recovered == nil {
			t.Fatal("engine recovered from a snapshot but holds no state to hand off")
		}
		cp, err := NewCheckpointer(env.e, CheckpointOptions{})
		if err != nil {
			t.Fatal(err)
		}
		env.cp = cp
		if reads := env.db.Stats().Gets - gets; reads != 1 {
			t.Fatalf("checkpointer attach made %d store reads, want 1 (the manifest)", reads)
		}
		if env.e.recovered != nil {
			t.Fatal("engine still references the handed-off state")
		}
		cutMatchesEngine(env, cp, "after-handoff")
		env.close()
	})

	t.Run("superseded", func(t *testing.T) {
		env, _ := reopenSnapEnv(t, dir)
		// A new record lands after the engine was built, as promotion
		// writes one into the store it then opens a journal on, cut past
		// the point the engine recovered from.
		if _, err := env.e.AddTasks(p.ID, []TaskSpec{{ExternalID: "before-supersede"}}); err != nil {
			t.Fatal(err)
		}
		if err := env.j.Flush(); err != nil {
			t.Fatal(err)
		}
		info, _ := snapshotRecord(t, env.db)
		if info.Seq == env.j.Len() {
			t.Fatal("the new record would share the recovered cut point")
		}
		data, _ := env.e.exportState(env.j.Len()).encode()
		if _, err := storage.WriteSnapshot(env.db, SnapshotPrefix, info.ID+1, env.j.Len(), data); err != nil {
			t.Fatal(err)
		}
		gets := env.db.Stats().Gets
		cp, err := NewCheckpointer(env.e, CheckpointOptions{})
		if err != nil {
			t.Fatal(err)
		}
		env.cp = cp
		if reads := env.db.Stats().Gets - gets; reads < 3 {
			t.Fatalf("checkpointer attach made %d store reads; the superseding record was not read", reads)
		}
		if env.e.recovered != nil {
			t.Fatal("engine still references its superseded state")
		}
		cutMatchesEngine(env, cp, "after-supersede")
		env.close()
	})
}
