package exp

import (
	"strings"
	"testing"
)

// TestCheckRecoveryBoundedSnapshotSize: the E12 gate refuses a snapshot
// record at least as large as the journal it replaces (the JSON payload
// measured 351 358 B against a 93 947 B journal at 1000 history).
func TestCheckRecoveryBoundedSnapshotSize(t *testing.T) {
	rows := func(snapshotBytes int64) []RecoveryRecord {
		return []RecoveryRecord{
			{History: 1000, Mode: "replay", Interval: 150, ReplayedEvents: 1016, JournalBytes: 93947},
			{History: 1000, Mode: "snapshot", Interval: 150, ReplayedEvents: 40, JournalBytes: 5000, SnapshotBytes: snapshotBytes},
		}
	}
	if err := CheckRecoveryBounded(rows(89644)); err != nil {
		t.Fatalf("smaller snapshot refused: %v", err)
	}
	for _, size := range []int64{93947, 351358} {
		err := CheckRecoveryBounded(rows(size))
		if err == nil || !strings.Contains(err.Error(), "snapshot record") {
			t.Fatalf("snapshot of %d bytes against a 93947-byte journal: err = %v", size, err)
		}
	}
}
