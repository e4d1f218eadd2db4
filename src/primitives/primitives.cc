#include "src/primitives/primitives.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/common/logging.h"

namespace sbt {
namespace {

// Chunk size (elements) for append-as-you-filter primitives: amortizes the per-append state
// check while keeping the stack footprint small.
constexpr size_t kChunkElems = 1024;

Status RequireProduced(const UArray& a, const char* what) {
  if (a.state() == UArrayState::kOpen) {
    return FailedPrecondition(std::string(what) + ": input uArray is still open");
  }
  return OkStatus();
}

Status RequireElemSize(const UArray& a, size_t elem, const char* what) {
  if (a.elem_size() != elem) {
    return InvalidArgument(std::string(what) + ": unexpected element size");
  }
  return OkStatus();
}

#ifndef NDEBUG
bool IsSortedKV(const UArray& kv) { return IsSortedI64(kv.Span<int64_t>()); }
#endif

// Small helper for producing a scalar output (1..n fixed elements).
template <typename T>
Result<UArray*> EmitScalars(const PrimitiveContext& ctx, std::initializer_list<T> values) {
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(T)));
  for (const T& v : values) {
    SBT_RETURN_IF_ERROR(out->AppendValue(v));
  }
  out->Produce();
  return out;
}

// Copies selected events through a stack chunk buffer.
template <typename T, typename Pred>
Result<UArray*> FilterCopy(const PrimitiveContext& ctx, const UArray& input, Pred keep) {
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(T)));
  T chunk[kChunkElems];
  size_t fill = 0;
  for (const T& e : input.Span<T>()) {
    if (keep(e)) {
      chunk[fill++] = e;
      if (fill == kChunkElems) {
        SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(T)));
        fill = 0;
      }
    }
  }
  if (fill > 0) {
    SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(T)));
  }
  out->Produce();
  return out;
}

// Sums `value(e)` over the input in four independent accumulators. A single `sum += e.value`
// loop over Events compiles (GCC 12, -O3) to SSE2 code that spills its accumulator to the stack
// and runs 4-9x slower. The accumulators are unsigned so that the sum wraps instead of
// overflowing; modular addition reassociates, so the split cannot change the result.
template <typename T, typename Value>
int64_t SumOf(const UArray& input, Value value) {
  const auto in = input.Span<T>();
  uint64_t acc[4] = {0, 0, 0, 0};
  size_t i = 0;
  for (; i + 4 <= in.size(); i += 4) {
    acc[0] += static_cast<uint64_t>(value(in[i]));
    acc[1] += static_cast<uint64_t>(value(in[i + 1]));
    acc[2] += static_cast<uint64_t>(value(in[i + 2]));
    acc[3] += static_cast<uint64_t>(value(in[i + 3]));
  }
  for (; i < in.size(); ++i) {
    acc[0] += static_cast<uint64_t>(value(in[i]));
  }
  return static_cast<int64_t>(acc[0] + acc[1] + acc[2] + acc[3]);
}

// Emits `project(kv)` for every element of a sorted PackedKV run whose projection differs from
// its predecessor's (the first element always), through a stack chunk buffer.
template <typename T, typename Project>
Result<UArray*> AdjacentUnique(const PrimitiveContext& ctx, const UArray& sorted_kv,
                               Project project) {
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(T)));
  const auto in = sorted_kv.Span<PackedKV>();
  T chunk[kChunkElems];
  size_t fill = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    const T cur = project(in[i]);
    if (i == 0 || cur != project(in[i - 1])) {
      chunk[fill++] = cur;
      if (fill == kChunkElems) {
        SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(T)));
        fill = 0;
      }
    }
  }
  if (fill > 0) {
    SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(T)));
  }
  out->Produce();
  return out;
}

}  // namespace

// --- Event-array primitives --------------------------------------------------

Result<std::vector<SegmentOutput>> PrimSegment(const PrimitiveContext& ctx, const UArray& events,
                                               const SlidingWindowFn& window_fn) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "Segment"));
  // Works on any fixed-layout event whose first field is the 32-bit event time (Event and
  // PowerEvent both qualify).
  const size_t stride = events.elem_size();
  if (stride != sizeof(Event) && stride != sizeof(PowerEvent)) {
    return InvalidArgument("Segment: unsupported event layout");
  }
  if (!window_fn.Valid()) {
    return InvalidArgument("Segment: invalid window spec (need 0 < slide <= size)");
  }

  const uint8_t* base = events.data();
  const size_t n = events.size();
  std::vector<SegmentOutput> outputs;
  if (n == 0) {
    return outputs;
  }
  auto ts_of = [base, stride](size_t i) {
    EventTimeMs ts;
    std::memcpy(&ts, base + i * stride, sizeof(ts));
    return ts;
  };

  // Pass 1: per-window counts over the (small, dense) index range of this batch. With sliding
  // windows each event counts toward every window covering it.
  uint32_t min_idx = std::numeric_limits<uint32_t>::max();
  uint32_t max_idx = 0;
  for (size_t i = 0; i < n; ++i) {
    const EventTimeMs ts = ts_of(i);
    min_idx = std::min(min_idx, window_fn.FirstWindow(ts));
    max_idx = std::max(max_idx, window_fn.LastWindow(ts));
  }
  std::vector<size_t> counts(static_cast<size_t>(max_idx - min_idx) + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const EventTimeMs ts = ts_of(i);
    for (uint32_t w = window_fn.FirstWindow(ts); w <= window_fn.LastWindow(ts); ++w) {
      ++counts[w - min_idx];
    }
  }

  // Pass 2: allocate one output per non-empty window and scatter sequentially. A
  // consumed-in-parallel hint applies per output (the k outputs go to k different consumers),
  // so each gets its own lane (paper §6.2 "(||k) prompts ... separate uGroups").
  std::vector<uint8_t*> cursors(counts.size(), nullptr);
  uint32_t lane_offset = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    PrimitiveContext out_ctx = ctx;
    if (out_ctx.hint.kind == PlacementHint::Kind::kConsumedInParallel) {
      out_ctx.hint.parallel_lane += lane_offset++;
    }
    SBT_ASSIGN_OR_RETURN(UArray * out, out_ctx.NewOutput(stride));
    SBT_ASSIGN_OR_RETURN(uint8_t * dst, out->AppendUninitialized(counts[i]));
    cursors[i] = dst;
    outputs.push_back(SegmentOutput{min_idx + static_cast<uint32_t>(i), out});
  }
  for (size_t i = 0; i < n; ++i) {
    const EventTimeMs ts = ts_of(i);
    for (uint32_t w = window_fn.FirstWindow(ts); w <= window_fn.LastWindow(ts); ++w) {
      uint8_t*& cursor = cursors[w - min_idx];
      std::memcpy(cursor, base + i * stride, stride);
      cursor += stride;
    }
  }
  for (SegmentOutput& o : outputs) {
    o.events->Produce();
  }
  return outputs;
}

Result<UArray*> PrimFilterBand(const PrimitiveContext& ctx, const UArray& events, int32_t lo,
                               int32_t hi) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "FilterBand"));
  SBT_RETURN_IF_ERROR(RequireElemSize(events, sizeof(Event), "FilterBand"));
  return FilterCopy<Event>(ctx, events,
                           [lo, hi](const Event& e) { return e.value >= lo && e.value < hi; });
}

Result<UArray*> PrimSelect(const PrimitiveContext& ctx, const UArray& events, uint32_t key) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "Select"));
  SBT_RETURN_IF_ERROR(RequireElemSize(events, sizeof(Event), "Select"));
  return FilterCopy<Event>(ctx, events, [key](const Event& e) { return e.key == key; });
}

Result<UArray*> PrimProject(const PrimitiveContext& ctx, const UArray& events) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "Project"));
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(PackedKV)));
  if (events.elem_size() == sizeof(Event)) {
    const auto in = events.Span<Event>();
    SBT_ASSIGN_OR_RETURN(PackedKV * dst, out->AppendUninitializedAs<PackedKV>(in.size()));
    for (const Event& e : in) {
      *dst++ = PackEvent(e);
    }
  } else if (events.elem_size() == sizeof(PowerEvent)) {
    // Power-grid layout: key is the (house, plug) pair, value the power sample.
    const auto in = events.Span<PowerEvent>();
    SBT_ASSIGN_OR_RETURN(PackedKV * dst, out->AppendUninitializedAs<PackedKV>(in.size()));
    for (const PowerEvent& e : in) {
      *dst++ = PackKV((e.house << 16) | (e.plug & 0xffffu), e.power);
    }
  } else {
    return InvalidArgument("Project: unsupported event layout");
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimScale(const PrimitiveContext& ctx, const UArray& events, int32_t factor) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "Scale"));
  SBT_RETURN_IF_ERROR(RequireElemSize(events, sizeof(Event), "Scale"));
  const auto in = events.Span<Event>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(Event)));
  SBT_ASSIGN_OR_RETURN(Event * dst, out->AppendUninitializedAs<Event>(in.size()));
  for (const Event& e : in) {
    *dst = e;
    dst->value = e.value * factor;
    ++dst;
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimSample(const PrimitiveContext& ctx, const UArray& events, uint32_t stride) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "Sample"));
  SBT_RETURN_IF_ERROR(RequireElemSize(events, sizeof(Event), "Sample"));
  if (stride == 0) {
    return InvalidArgument("Sample: stride must be >= 1");
  }
  const auto in = events.Span<Event>();
  const size_t n = (in.size() + stride - 1) / stride;
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(Event)));
  SBT_ASSIGN_OR_RETURN(Event * dst, out->AppendUninitializedAs<Event>(n));
  for (size_t i = 0; i < in.size(); i += stride) {
    *dst++ = in[i];
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimMinMax(const PrimitiveContext& ctx, const UArray& events) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "MinMax"));
  SBT_RETURN_IF_ERROR(RequireElemSize(events, sizeof(Event), "MinMax"));
  int32_t mn = std::numeric_limits<int32_t>::max();
  int32_t mx = std::numeric_limits<int32_t>::min();
  for (const Event& e : events.Span<Event>()) {
    mn = std::min(mn, e.value);
    mx = std::max(mx, e.value);
  }
  return EmitScalars<int32_t>(ctx, {mn, mx});
}

Result<UArray*> PrimHistogram(const PrimitiveContext& ctx, const UArray& events, int32_t base,
                              uint32_t bucket_width, uint32_t buckets) {
  SBT_RETURN_IF_ERROR(RequireProduced(events, "Histogram"));
  SBT_RETURN_IF_ERROR(RequireElemSize(events, sizeof(Event), "Histogram"));
  if (bucket_width == 0 || buckets == 0) {
    return InvalidArgument("Histogram: zero bucket width or count");
  }
  std::vector<uint64_t> counts(buckets, 0);
  for (const Event& e : events.Span<Event>()) {
    int64_t b = (static_cast<int64_t>(e.value) - base) / bucket_width;
    b = std::clamp<int64_t>(b, 0, buckets - 1);
    ++counts[static_cast<size_t>(b)];
  }
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(uint64_t)));
  SBT_RETURN_IF_ERROR(out->Append(counts.data(), counts.size() * sizeof(uint64_t)));
  out->Produce();
  return out;
}

Result<UArray*> PrimSum(const PrimitiveContext& ctx, const UArray& input) {
  SBT_RETURN_IF_ERROR(RequireProduced(input, "Sum"));
  int64_t sum = 0;
  if (input.elem_size() == sizeof(Event)) {
    sum = SumOf<Event>(input, [](const Event& e) { return e.value; });
  } else if (input.elem_size() == sizeof(int64_t)) {
    // Raw 64-bit addends: partial sums being combined at window close.
    sum = SumOf<int64_t>(input, [](int64_t v) { return v; });
  } else {
    return InvalidArgument("Sum: input must be Event or int64 partials");
  }
  return EmitScalars<int64_t>(ctx, {sum});
}

Result<UArray*> PrimCount(const PrimitiveContext& ctx, const UArray& input) {
  SBT_RETURN_IF_ERROR(RequireProduced(input, "Count"));
  return EmitScalars<uint64_t>(ctx, {static_cast<uint64_t>(input.size())});
}

// --- PackedKV primitives ------------------------------------------------------

Result<UArray*> PrimSort(const PrimitiveContext& ctx, const UArray& kv) {
  SBT_RETURN_IF_ERROR(RequireProduced(kv, "Sort"));
  SBT_RETURN_IF_ERROR(RequireElemSize(kv, sizeof(PackedKV), "Sort"));
  const auto in = kv.Span<int64_t>();

  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(PackedKV)));
  SBT_ASSIGN_OR_RETURN(int64_t * dst, out->AppendUninitializedAs<int64_t>(in.size()));
  std::memcpy(dst, in.data(), in.size_bytes());

  // Scratch lives in a temporary uArray so even transient data stays in secure memory.
  SBT_ASSIGN_OR_RETURN(UArray * scratch, ctx.NewTemp(sizeof(PackedKV)));
  auto scratch_buf = scratch->AppendUninitializedAs<int64_t>(in.size());
  if (!scratch_buf.ok()) {
    ctx.alloc->Retire(scratch);
    return scratch_buf.status();
  }
  SortI64(std::span<int64_t>(dst, in.size()), std::span<int64_t>(*scratch_buf, in.size()));
  scratch->Produce();
  ctx.alloc->Retire(scratch);
  out->Produce();
  return out;
}

Result<UArray*> PrimMerge(const PrimitiveContext& ctx, const UArray& a, const UArray& b,
                          UArrayScope scope) {
  SBT_RETURN_IF_ERROR(RequireProduced(a, "Merge"));
  SBT_RETURN_IF_ERROR(RequireProduced(b, "Merge"));
  SBT_RETURN_IF_ERROR(RequireElemSize(a, sizeof(PackedKV), "Merge"));
  SBT_RETURN_IF_ERROR(RequireElemSize(b, sizeof(PackedKV), "Merge"));
  SBT_UARRAY_DCHECK(IsSortedKV(a) && IsSortedKV(b));

  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(PackedKV), scope));
  SBT_ASSIGN_OR_RETURN(int64_t * dst, out->AppendUninitializedAs<int64_t>(a.size() + b.size()));
  MergeI64(a.Span<int64_t>(), b.Span<int64_t>(), std::span<int64_t>(dst, a.size() + b.size()));
  out->Produce();
  return out;
}

Result<UArray*> PrimMergeN(const PrimitiveContext& ctx, const std::vector<const UArray*>& inputs) {
  if (inputs.empty()) {
    return InvalidArgument("MergeN: no inputs");
  }
  for (const UArray* in : inputs) {
    SBT_RETURN_IF_ERROR(RequireProduced(*in, "MergeN"));
    SBT_RETURN_IF_ERROR(RequireElemSize(*in, sizeof(PackedKV), "MergeN"));
  }
  if (inputs.size() == 1) {
    return PrimCompact(ctx, *inputs[0]);
  }
  if (inputs.size() == 2) {
    return PrimMerge(ctx, *inputs[0], *inputs[1]);
  }

  // Three or more runs: concatenate them into the output and radix-sort it in place. The cost
  // does not grow with the fan-in, and the bytes equal any merge's: a sorted array is unique.
  size_t total = 0;
  for (const UArray* in : inputs) {
    total += in->size();
  }
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(PackedKV)));
  SBT_ASSIGN_OR_RETURN(UArray * scratch, ctx.NewTemp(sizeof(PackedKV)));
  auto dst = out->AppendUninitializedAs<int64_t>(total);
  auto scratch_buf = scratch->AppendUninitializedAs<int64_t>(total);
  if (!dst.ok() || !scratch_buf.ok()) {
    // Under pool exhaustion a half-built output would pin `total` words; give both back.
    ctx.alloc->Retire(scratch);
    ctx.alloc->Retire(out);
    return dst.ok() ? scratch_buf.status() : dst.status();
  }
  size_t pos = 0;
  for (const UArray* in : inputs) {
    std::memcpy(*dst + pos, in->data(), in->size_bytes());
    pos += in->size();
  }
  SortI64(std::span<int64_t>(*dst, total), std::span<int64_t>(*scratch_buf, total));
  scratch->Produce();
  ctx.alloc->Retire(scratch);
  out->Produce();
  return out;
}

Result<UArray*> PrimSumCnt(const PrimitiveContext& ctx, const UArray& sorted_kv) {
  SBT_RETURN_IF_ERROR(RequireProduced(sorted_kv, "SumCnt"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sorted_kv, sizeof(PackedKV), "SumCnt"));
  SBT_UARRAY_DCHECK(IsSortedKV(sorted_kv));

  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(KeySumCount)));
  const auto in = sorted_kv.Span<PackedKV>();
  KeySumCount chunk[kChunkElems];
  size_t fill = 0;
  size_t i = 0;
  while (i < in.size()) {
    const uint32_t key = UnpackKey(in[i]);
    KeySumCount cell{key, 0, 0};
    while (i < in.size() && UnpackKey(in[i]) == key) {
      cell.sum += UnpackValue(in[i]);
      ++cell.count;
      ++i;
    }
    chunk[fill++] = cell;
    if (fill == kChunkElems) {
      SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(KeySumCount)));
      fill = 0;
    }
  }
  if (fill > 0) {
    SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(KeySumCount)));
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimMergeSumCnt(const PrimitiveContext& ctx, const UArray& a, const UArray& b) {
  SBT_RETURN_IF_ERROR(RequireProduced(a, "MergeSumCnt"));
  SBT_RETURN_IF_ERROR(RequireProduced(b, "MergeSumCnt"));
  SBT_RETURN_IF_ERROR(RequireElemSize(a, sizeof(KeySumCount), "MergeSumCnt"));
  SBT_RETURN_IF_ERROR(RequireElemSize(b, sizeof(KeySumCount), "MergeSumCnt"));

  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(KeySumCount)));
  const auto sa = a.Span<KeySumCount>();
  const auto sb = b.Span<KeySumCount>();
  KeySumCount chunk[kChunkElems];
  size_t fill = 0;
  auto push = [&](const KeySumCount& cell) -> Status {
    chunk[fill++] = cell;
    if (fill == kChunkElems) {
      SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(KeySumCount)));
      fill = 0;
    }
    return OkStatus();
  };

  size_t i = 0;
  size_t j = 0;
  while (i < sa.size() || j < sb.size()) {
    KeySumCount cell;
    if (j >= sb.size() || (i < sa.size() && sa[i].key < sb[j].key)) {
      cell = sa[i++];
    } else if (i >= sa.size() || sb[j].key < sa[i].key) {
      cell = sb[j++];
    } else {
      cell = sa[i++];
      cell.sum += sb[j].sum;
      cell.count += sb[j].count;
      ++j;
    }
    SBT_RETURN_IF_ERROR(push(cell));
  }
  if (fill > 0) {
    SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(KeySumCount)));
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimTopKPerKey(const PrimitiveContext& ctx, const UArray& sorted_kv, uint32_t k) {
  SBT_RETURN_IF_ERROR(RequireProduced(sorted_kv, "TopK"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sorted_kv, sizeof(PackedKV), "TopK"));
  if (k == 0) {
    return InvalidArgument("TopK: k must be >= 1");
  }
  SBT_UARRAY_DCHECK(IsSortedKV(sorted_kv));

  const auto in = sorted_kv.Span<PackedKV>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(PackedKV)));
  size_t i = 0;
  while (i < in.size()) {
    const uint32_t key = UnpackKey(in[i]);
    size_t end = i;
    while (end < in.size() && UnpackKey(in[end]) == key) {
      ++end;
    }
    // Values ascend within the run; the K largest are the run's tail.
    const size_t take = std::min<size_t>(k, end - i);
    SBT_RETURN_IF_ERROR(out->Append(&in[end - take], take * sizeof(PackedKV)));
    i = end;
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimUnique(const PrimitiveContext& ctx, const UArray& sorted_kv) {
  SBT_RETURN_IF_ERROR(RequireProduced(sorted_kv, "Unique"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sorted_kv, sizeof(PackedKV), "Unique"));
  SBT_UARRAY_DCHECK(IsSortedKV(sorted_kv));
  return AdjacentUnique<uint32_t>(ctx, sorted_kv, [](PackedKV kv) { return UnpackKey(kv); });
}

Result<UArray*> PrimCountPerKey(const PrimitiveContext& ctx, const UArray& sorted_kv) {
  SBT_RETURN_IF_ERROR(RequireProduced(sorted_kv, "CountPerKey"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sorted_kv, sizeof(PackedKV), "CountPerKey"));
  SBT_UARRAY_DCHECK(IsSortedKV(sorted_kv));

  const auto in = sorted_kv.Span<PackedKV>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(KeyValue)));
  size_t i = 0;
  while (i < in.size()) {
    const uint32_t key = UnpackKey(in[i]);
    int64_t count = 0;
    while (i < in.size() && UnpackKey(in[i]) == key) {
      ++count;
      ++i;
    }
    SBT_RETURN_IF_ERROR(out->AppendValue(KeyValue{key, count}));
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimMedianPerKey(const PrimitiveContext& ctx, const UArray& sorted_kv) {
  SBT_RETURN_IF_ERROR(RequireProduced(sorted_kv, "Median"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sorted_kv, sizeof(PackedKV), "Median"));
  SBT_UARRAY_DCHECK(IsSortedKV(sorted_kv));

  const auto in = sorted_kv.Span<PackedKV>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(KeyValue)));
  size_t i = 0;
  while (i < in.size()) {
    const uint32_t key = UnpackKey(in[i]);
    size_t end = i;
    while (end < in.size() && UnpackKey(in[end]) == key) {
      ++end;
    }
    // Lower median of the ascending run.
    const PackedKV med = in[i + (end - i - 1) / 2];
    SBT_RETURN_IF_ERROR(out->AppendValue(KeyValue{key, UnpackValue(med)}));
    i = end;
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimDedup(const PrimitiveContext& ctx, const UArray& sorted_kv) {
  SBT_RETURN_IF_ERROR(RequireProduced(sorted_kv, "Dedup"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sorted_kv, sizeof(PackedKV), "Dedup"));
  SBT_UARRAY_DCHECK(IsSortedKV(sorted_kv));
  return AdjacentUnique<PackedKV>(ctx, sorted_kv, [](PackedKV kv) { return kv; });
}

Result<UArray*> PrimJoin(const PrimitiveContext& ctx, const UArray& left, const UArray& right) {
  SBT_RETURN_IF_ERROR(RequireProduced(left, "Join"));
  SBT_RETURN_IF_ERROR(RequireProduced(right, "Join"));
  SBT_RETURN_IF_ERROR(RequireElemSize(left, sizeof(PackedKV), "Join"));
  SBT_RETURN_IF_ERROR(RequireElemSize(right, sizeof(PackedKV), "Join"));
  SBT_UARRAY_DCHECK(IsSortedKV(left) && IsSortedKV(right));

  const auto l = left.Span<PackedKV>();
  const auto r = right.Span<PackedKV>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(JoinRow)));
  JoinRow chunk[kChunkElems];
  size_t fill = 0;

  size_t i = 0;
  size_t j = 0;
  while (i < l.size() && j < r.size()) {
    const uint32_t lk = UnpackKey(l[i]);
    const uint32_t rk = UnpackKey(r[j]);
    if (lk < rk) {
      ++i;
      continue;
    }
    if (rk < lk) {
      ++j;
      continue;
    }
    // Equal keys: emit the cross product of the two runs.
    size_t lend = i;
    while (lend < l.size() && UnpackKey(l[lend]) == lk) {
      ++lend;
    }
    size_t rend = j;
    while (rend < r.size() && UnpackKey(r[rend]) == rk) {
      ++rend;
    }
    for (size_t a = i; a < lend; ++a) {
      for (size_t b = j; b < rend; ++b) {
        chunk[fill++] = JoinRow{lk, UnpackValue(l[a]), UnpackValue(r[b])};
        if (fill == kChunkElems) {
          SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(JoinRow)));
          fill = 0;
        }
      }
    }
    i = lend;
    j = rend;
  }
  if (fill > 0) {
    SBT_RETURN_IF_ERROR(out->Append(chunk, fill * sizeof(JoinRow)));
  }
  out->Produce();
  return out;
}

// --- Aggregate-state primitives -------------------------------------------------

Result<UArray*> PrimAverage(const PrimitiveContext& ctx, const UArray& sumcnt) {
  SBT_RETURN_IF_ERROR(RequireProduced(sumcnt, "Average"));
  SBT_RETURN_IF_ERROR(RequireElemSize(sumcnt, sizeof(KeySumCount), "Average"));
  const auto in = sumcnt.Span<KeySumCount>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(KeyValue)));
  SBT_ASSIGN_OR_RETURN(KeyValue * dst, out->AppendUninitializedAs<KeyValue>(in.size()));
  for (const KeySumCount& c : in) {
    *dst++ = KeyValue{c.key, c.count == 0 ? 0 : c.sum / c.count};
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimEwma(const PrimitiveContext& ctx, const UArray& state, const UArray& obs,
                         uint32_t alpha_num, uint32_t alpha_den) {
  SBT_RETURN_IF_ERROR(RequireProduced(state, "Ewma"));
  SBT_RETURN_IF_ERROR(RequireProduced(obs, "Ewma"));
  SBT_RETURN_IF_ERROR(RequireElemSize(state, sizeof(KeyValue), "Ewma"));
  SBT_RETURN_IF_ERROR(RequireElemSize(obs, sizeof(KeyValue), "Ewma"));
  if (alpha_den == 0 || alpha_num > alpha_den) {
    return InvalidArgument("Ewma: require 0 <= alpha_num/alpha_den <= 1");
  }

  const auto s = state.Span<KeyValue>();
  const auto o = obs.Span<KeyValue>();
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(KeyValue), UArrayScope::kState));
  size_t i = 0;
  size_t j = 0;
  while (i < s.size() || j < o.size()) {
    KeyValue cell;
    if (j >= o.size() || (i < s.size() && s[i].key < o[j].key)) {
      cell = s[i++];  // no new observation: state carries over
    } else if (i >= s.size() || o[j].key < s[i].key) {
      cell = o[j++];  // first observation seeds the state
    } else {
      const int64_t blended =
          (static_cast<int64_t>(alpha_num) * o[j].value +
           static_cast<int64_t>(alpha_den - alpha_num) * s[i].value) /
          static_cast<int64_t>(alpha_den);
      cell = KeyValue{s[i].key, blended};
      ++i;
      ++j;
    }
    SBT_RETURN_IF_ERROR(out->AppendValue(cell));
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimRekey(const PrimitiveContext& ctx, const UArray& input, uint32_t shift) {
  SBT_RETURN_IF_ERROR(RequireProduced(input, "Rekey"));
  if (shift > 31) {
    return InvalidArgument("Rekey: shift must be <= 31");
  }
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(sizeof(PackedKV)));
  if (input.elem_size() == sizeof(PackedKV)) {
    const auto in = input.Span<PackedKV>();
    SBT_ASSIGN_OR_RETURN(PackedKV * dst, out->AppendUninitializedAs<PackedKV>(in.size()));
    for (const PackedKV kv : in) {
      *dst++ = PackKV(UnpackKey(kv) >> shift, UnpackValue(kv));
    }
  } else if (input.elem_size() == sizeof(KeyValue)) {
    const auto in = input.Span<KeyValue>();
    SBT_ASSIGN_OR_RETURN(PackedKV * dst, out->AppendUninitializedAs<PackedKV>(in.size()));
    for (const KeyValue& c : in) {
      *dst++ = PackKV(c.key >> shift, static_cast<int32_t>(c.value));
    }
  } else {
    return InvalidArgument("Rekey: input must be PackedKV or KeyValue");
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimAboveMean(const PrimitiveContext& ctx, const UArray& cells) {
  SBT_RETURN_IF_ERROR(RequireProduced(cells, "AboveMean"));
  SBT_RETURN_IF_ERROR(RequireElemSize(cells, sizeof(KeyValue), "AboveMean"));
  const auto in = cells.Span<KeyValue>();
  int64_t sum = 0;
  for (const KeyValue& c : in) {
    sum += c.value;
  }
  // Compare value * n > sum to avoid division; empty input keeps nothing.
  const int64_t n = static_cast<int64_t>(in.size());
  return FilterCopy<KeyValue>(ctx, cells,
                              [sum, n](const KeyValue& c) { return c.value * n > sum; });
}

// --- Generic primitives -----------------------------------------------------------

Result<UArray*> PrimConcat(const PrimitiveContext& ctx, const std::vector<const UArray*>& inputs) {
  if (inputs.empty()) {
    return InvalidArgument("Concat: no inputs");
  }
  const size_t elem = inputs[0]->elem_size();
  for (const UArray* in : inputs) {
    SBT_RETURN_IF_ERROR(RequireProduced(*in, "Concat"));
    SBT_RETURN_IF_ERROR(RequireElemSize(*in, elem, "Concat"));
  }
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(elem));
  for (const UArray* in : inputs) {
    SBT_RETURN_IF_ERROR(out->Append(in->data(), in->size_bytes()));
  }
  out->Produce();
  return out;
}

Result<UArray*> PrimCompact(const PrimitiveContext& ctx, const UArray& input) {
  SBT_RETURN_IF_ERROR(RequireProduced(input, "Compact"));
  SBT_ASSIGN_OR_RETURN(UArray * out, ctx.NewOutput(input.elem_size()));
  SBT_RETURN_IF_ERROR(out->Append(input.data(), input.size_bytes()));
  out->Produce();
  return out;
}

}  // namespace sbt
