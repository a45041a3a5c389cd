package shard

// DecodeFrame and EncodeFrame open the either-kind frame codec to the
// external test package.
var DecodeFrame = decodeFrame

// EncodeFrame frames an already encoded bundle the way the pull handler
// frames one it encodes in place.
func EncodeFrame(from, seq uint64, days int, bundle []byte) []byte {
	return sealFrame(newFrameBuilder().Raw(bundle), from, seq, days)
}
