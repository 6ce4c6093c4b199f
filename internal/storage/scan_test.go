package storage

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestScanSharedMatchesScanOverBatches: ScanShared, which decodes each
// batch frame once for all of its keys, returns exactly what Scan does
// when batches repeat a key, later frames overwrite or delete keys of an
// earlier batch, plain puts sit between batches, and after a reopen.
func TestScanSharedMatchesScanOverBatches(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{Sync: SyncNever})
	apply := func(b *Batch) {
		t.Helper()
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	put := func(k, v string) {
		t.Helper()
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBatch()
	for i := 1; i <= 5; i++ {
		b.Put([]byte(fmt.Sprintf("a/%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	b.Put([]byte("a/2"), []byte("v2-again")) // last put in a batch wins
	apply(b)
	put("a/6", "v6")
	apply(NewBatch().Put([]byte("a/7"), []byte("v7")).Put([]byte("a/8"), []byte("v8")).
		Put([]byte("a/3"), []byte("v3-later")).Delete([]byte("a/4")))
	put("a/1", "v1-later")
	apply(NewBatch().Put([]byte("b/x"), []byte("other prefix")).Put([]byte("a/9"), []byte("v9")))

	want := map[string]string{
		"a/1": "v1-later", "a/2": "v2-again", "a/3": "v3-later", "a/5": "v5",
		"a/6": "v6", "a/7": "v7", "a/8": "v8", "a/9": "v9",
	}
	check := func(db *DB) {
		t.Helper()
		var scanned, shared []string
		if err := db.Scan("a/", func(k string, v []byte) bool {
			scanned = append(scanned, k+"="+string(v))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.ScanShared("a/", func(k string, v []byte) bool {
			shared = append(shared, k+"="+string(v))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared, scanned) {
			t.Fatalf("ScanShared %v\n       Scan %v", shared, scanned)
		}
		got := map[string]string{}
		for _, kv := range shared {
			k, v, _ := strings.Cut(kv, "=")
			got[k] = v
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
	check(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, dir, Options{Sync: SyncNever})
	defer db.Close()
	check(db)
}
