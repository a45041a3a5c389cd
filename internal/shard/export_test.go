package shard

// DecodeFrame and EncodeFrame open the either-kind frame codec to the
// external test package.
var (
	DecodeFrame = decodeFrame
	EncodeFrame = encodeFrame
)
