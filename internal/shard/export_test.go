package shard

import "time"

// DecodeFrame and EncodeFrame open the either-kind frame codec to the
// external test package.
var DecodeFrame = decodeFrame

// EncodeFrame frames an already encoded bundle the way the pull handler
// frames one it encodes in place.
func EncodeFrame(from, seq uint64, days int, bundle []byte) []byte {
	return sealFrame(newFrameBuilder().Raw(bundle), from, seq, days)
}

// Install hands the coordinator one pulled frame of shard i, as a pull
// that brought it would.
func (c *Coordinator) Install(i int, frame []byte) error {
	_, _, err := c.install(i, frame, time.Time{})
	return err
}

// HeldFrames returns the frames the coordinator keeps for shard i: its
// last full frame, then the deltas installed since.
func (c *Coordinator) HeldFrames(i int) [][]byte {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	return c.shards[i].frames
}
