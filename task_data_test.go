package fedproxvr

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// taskDataDigests pins the bits of the data every task builder hands out:
// one FNV-64a over math.Float64bits of every training shard's X, then
// every shard's labels, then the test set's X and labels, for each task
// of taskDataCases. A change that moves a sample, a label, a row's order,
// the size draw or the hold-out split changes a digest. Regenerate only
// for a deliberate change of the generated data, and say so.
var taskDataDigests = map[string]uint64{
	"convex100": 0x6e0f060c05040ce4,
	"jobs3":     0xd5aaba6d5bc3db55,
	"tcp8":      0xde454da851d78905,
	"cnn10":     0x2dcd49a57d19af48,
}

// taskDataCases builds each task at the shape a benchmark workload uses:
// convex100's Synthetic(1,1) on 100 devices, the first jobs3 job's
// synthetic task (10 devices, seed 1, the default size range), tcp8's
// Fashion image task on 8 devices and cnn10's thinned CNN task on 10.
var taskDataCases = []struct {
	name  string
	build func() (Task, error)
}{
	{"convex100", func() (Task, error) {
		return SyntheticTask(SyntheticOptions{Devices: 100, MinSamples: 37, MaxSamples: 1600, Seed: 2020}), nil
	}},
	{"jobs3", func() (Task, error) {
		return SyntheticTask(SyntheticOptions{Devices: 10, Seed: 1}), nil
	}},
	{"tcp8", func() (Task, error) {
		return ImageTask(tcp8Options)
	}},
	{"cnn10", func() (Task, error) {
		return CNNTask(ImageOptions{Style: Digits, Devices: 10, SamplesPerClass: 40, MinSamples: 12, MaxSamples: 24, Seed: 2020}, 8)
	}},
}

var tcp8Options = ImageOptions{Style: Fashion, Devices: 8, SamplesPerClass: 80, MinSamples: 30, MaxSamples: 60, Seed: 2020}

func taskDataDigest(task Task) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, shard := range task.Part.Clients {
		for _, v := range shard.X {
			put(math.Float64bits(v))
		}
	}
	for _, shard := range task.Part.Clients {
		for _, y := range shard.Y {
			put(uint64(y))
		}
	}
	for _, v := range task.Test.X {
		put(math.Float64bits(v))
	}
	for _, y := range task.Test.Y {
		put(uint64(y))
	}
	return h.Sum64()
}

// TestTaskDataDigest: every task builder hands out the same samples, in
// the same order, at any GOMAXPROCS (`make evalcpu` runs it at -cpu 1,2,4).
func TestTaskDataDigest(t *testing.T) {
	for _, c := range taskDataCases {
		task, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := taskDataDigest(task), taskDataDigests[c.name]; got != want {
			t.Errorf("%s: data digest %#x, want %#x", c.name, got, want)
		}
	}
}

// allocated returns the bytes f allocates (the TotalAlloc delta).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// sampleBytes is what a task's samples occupy: 8 bytes per feature and
// per label, over every shard and the test set.
func sampleBytes(task Task) uint64 {
	n := 0
	for _, shard := range append(task.Part.Clients, task.Test) {
		n += len(shard.X) + len(shard.Y)
	}
	return 8 * uint64(n)
}

// TestSyntheticTaskAllocatesItsSamplesOnce: building convex100's task
// allocates at most 1.1× its samples' bytes (1.02× measured) — every row
// once, training and held-out alike, written straight to where it stays.
// A copy of the held-out quarter into the test set would cost 1.29×.
func TestSyntheticTaskAllocatesItsSamplesOnce(t *testing.T) {
	var task Task
	got := allocated(func() { task, _ = taskDataCases[0].build() })
	held := sampleBytes(task)
	t.Logf("SyntheticTask allocates %d bytes for %d bytes of samples (%.2f×)", got, held, float64(got)/float64(held))
	if float64(got) > 1.1*float64(held) {
		t.Fatalf("SyntheticTask allocates %d bytes, over 1.1× its %d bytes of samples", got, held)
	}
}

// imageTaskBytesBefore is what ImageTask allocated at tcp8's shape when
// Split copied both halves of the corpus (12 748 456–12 748 600 bytes,
// measured at GOMAXPROCS 1, 2 and 4).
const imageTaskBytesBefore = 12_748_600

// TestImageTaskAllocatesNoMoreThanBefore: splitting the image corpus in
// place and copying out only its held-out quarter allocates no more than
// copying both halves did.
func TestImageTaskAllocatesNoMoreThanBefore(t *testing.T) {
	var err error
	got := allocated(func() { _, err = ImageTask(tcp8Options) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ImageTask at tcp8's shape allocates %d bytes (%d before the in-place split)", got, imageTaskBytesBefore)
	if got > imageTaskBytesBefore {
		t.Fatalf("ImageTask allocates %d bytes, more than the %d it took before", got, imageTaskBytesBefore)
	}
}
