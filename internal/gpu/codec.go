package gpu

import (
	"strconv"

	"repro/internal/coherence"
	"repro/internal/llc"
	"repro/internal/wire"
)

// Config's JSON format, written and read by hand: a request's explicit
// config (encoded by the client, decoded by both daemons) and every store
// key's material go through here. AppendJSON is byte-identical to
// json.Marshal of the same value, fields in declaration order, which is what
// keeps every store key stable; DecodeJSON reads what AppendJSON writes (and
// the rest of wire's subset) into the same value json.Unmarshal would. A
// field added to Config, memsys.Geometry or core.Options must be added to
// both; TestCodecCoversEveryField in package client fails until it is.

// AppendJSON appends c's JSON encoding. c must be finite, as Validate
// requires; encoding/json refuses NaN and ±Inf.
func (c *Config) AppendJSON(b []byte) []byte {
	b = appendInt(b, `{"Chips":`, c.Chips)
	b = appendInt(b, `,"SMsPerChip":`, c.SMsPerChip)
	b = appendInt(b, `,"WarpsPerSM":`, c.WarpsPerSM)
	b = appendInt(b, `,"SMsPerCluster":`, c.SMsPerCluster)
	b = appendInt(b, `,"SlicesPerChip":`, c.SlicesPerChip)
	b = appendInt(b, `,"LLCBytesPerChip":`, c.LLCBytesPerChip)
	b = appendInt(b, `,"LLCWays":`, c.LLCWays)
	b = appendInt(b, `,"L1BytesPerSM":`, c.L1BytesPerSM)
	b = appendInt(b, `,"L1Ways":`, c.L1Ways)
	b = appendInt(b, `,"Geom":{"LineBytes":`, c.Geom.LineBytes)
	b = appendInt(b, `,"PageBytes":`, c.Geom.PageBytes)
	b = appendInt(b, `,"Sectors":`, c.Geom.Sectors)
	b = strconv.AppendBool(append(b, `},"Sectored":`...), c.Sectored)
	b = wire.AppendFloat(append(b, `,"ClusterBW":`...), c.ClusterBW)
	b = wire.AppendFloat(append(b, `,"SliceBW":`...), c.SliceBW)
	b = wire.AppendFloat(append(b, `,"RingLinkBW":`...), c.RingLinkBW)
	b = wire.AppendFloat(append(b, `,"ChannelBW":`...), c.ChannelBW)
	b = appendInt(b, `,"ChannelsPerChip":`, c.ChannelsPerChip)
	b = appendInt(b, `,"L1Latency":`, c.L1Latency)
	b = appendInt(b, `,"LLCLatency":`, c.LLCLatency)
	b = appendInt(b, `,"DRAMLatency":`, c.DRAMLatency)
	b = appendInt(b, `,"RingHopLatency":`, c.RingHopLatency)
	b = appendInt(b, `,"Org":`, c.Org)
	b = appendInt(b, `,"Coherence":`, c.Coherence)
	o := &c.SACOpts
	b = appendInt(b, `,"SACOpts":{"WindowCycles":`, o.WindowCycles)
	b = wire.AppendFloat(append(b, `,"Theta":`...), o.Theta)
	b = strconv.AppendBool(append(b, `,"DisableLSU":`...), o.DisableLSU)
	b = appendInt(b, `,"ReprofileEvery":`, o.ReprofileEvery)
	b = appendInt(b, `},"DynamicEpoch":`, c.DynamicEpoch)
	b = appendInt(b, `,"MSHRPerSlice":`, c.MSHRPerSlice)
	b = appendInt(b, `,"QueueBound":`, c.QueueBound)
	b = appendInt(b, `,"WorkloadScale":`, c.WorkloadScale)
	b = appendInt(b, `,"MaxCycles":`, c.MaxCycles)
	b = appendInt(b, `,"WatchdogCycles":`, c.WatchdogCycles)
	return append(b, '}')
}

func appendInt[T ~int | ~int64 | ~uint8](b []byte, prefix string, v T) []byte {
	return strconv.AppendInt(append(b, prefix...), int64(v), 10)
}

// DecodeJSON reads one JSON object into c, member by member, as
// json.Unmarshal does: members absent from the input keep c's values. A
// member name Config does not spell exactly takes r off the subset.
func (c *Config) DecodeJSON(r *wire.Reader) {
	r.Open('{')
	for r.Next('}') {
		switch string(r.Key()) {
		case "Chips":
			c.Chips = r.Int()
		case "SMsPerChip":
			c.SMsPerChip = r.Int()
		case "WarpsPerSM":
			c.WarpsPerSM = r.Int()
		case "SMsPerCluster":
			c.SMsPerCluster = r.Int()
		case "SlicesPerChip":
			c.SlicesPerChip = r.Int()
		case "LLCBytesPerChip":
			c.LLCBytesPerChip = r.Int()
		case "LLCWays":
			c.LLCWays = r.Int()
		case "L1BytesPerSM":
			c.L1BytesPerSM = r.Int()
		case "L1Ways":
			c.L1Ways = r.Int()
		case "Geom":
			c.decodeGeom(r)
		case "Sectored":
			c.Sectored = r.Bool()
		case "ClusterBW":
			c.ClusterBW = r.Float64()
		case "SliceBW":
			c.SliceBW = r.Float64()
		case "RingLinkBW":
			c.RingLinkBW = r.Float64()
		case "ChannelBW":
			c.ChannelBW = r.Float64()
		case "ChannelsPerChip":
			c.ChannelsPerChip = r.Int()
		case "L1Latency":
			c.L1Latency = r.Int64()
		case "LLCLatency":
			c.LLCLatency = r.Int64()
		case "DRAMLatency":
			c.DRAMLatency = r.Int64()
		case "RingHopLatency":
			c.RingHopLatency = r.Int64()
		case "Org":
			c.Org = llc.Org(r.Uint8())
		case "Coherence":
			c.Coherence = coherence.Protocol(r.Uint8())
		case "SACOpts":
			c.decodeSACOpts(r)
		case "DynamicEpoch":
			c.DynamicEpoch = r.Int64()
		case "MSHRPerSlice":
			c.MSHRPerSlice = r.Int()
		case "QueueBound":
			c.QueueBound = r.Int()
		case "WorkloadScale":
			c.WorkloadScale = r.Int()
		case "MaxCycles":
			c.MaxCycles = r.Int64()
		case "WatchdogCycles":
			c.WatchdogCycles = r.Int64()
		default:
			r.Fail()
		}
	}
}

func (c *Config) decodeGeom(r *wire.Reader) {
	g := &c.Geom
	r.Open('{')
	for r.Next('}') {
		switch string(r.Key()) {
		case "LineBytes":
			g.LineBytes = r.Int()
		case "PageBytes":
			g.PageBytes = r.Int()
		case "Sectors":
			g.Sectors = r.Int()
		default:
			r.Fail()
		}
	}
}

func (c *Config) decodeSACOpts(r *wire.Reader) {
	o := &c.SACOpts
	r.Open('{')
	for r.Next('}') {
		switch string(r.Key()) {
		case "WindowCycles":
			o.WindowCycles = r.Int64()
		case "Theta":
			o.Theta = r.Float64()
		case "DisableLSU":
			o.DisableLSU = r.Bool()
		case "ReprofileEvery":
			o.ReprofileEvery = r.Int64()
		default:
			r.Fail()
		}
	}
}
