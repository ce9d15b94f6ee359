// Seeded mutation harness for the decoders that read bytes back from PMem:
// the EBP page-frame walk (PageFrame::Parse and PageFrame::ForEach, which
// the server-side recovery scan runs over a whole segment), the SegmentRing
// header codec, and the REDO batch payload. Every valid input is mutated
// four ways — truncated, bit-flipped, a length field inflated, two inputs
// spliced — and each mutant must be rejected or decoded within its bounds,
// with no crash and, in the sanitizer build, no ASan/UBSan report. Mutants
// are decoded from exactly-sized heap copies so an overrun hits a redzone.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "astore/segment_ring.h"
#include "common/coding.h"
#include "common/random.h"
#include "ebp/ebp.h"
#include "logstore/logstore.h"

namespace vedb {
namespace {

constexpr int kRounds = 2000;  // per decoder and mutation kind

/// Owns an exactly-sized heap copy of `bytes` (no slack past the end).
class ExactCopy {
 public:
  explicit ExactCopy(const std::string& bytes)
      : size_(bytes.size()), data_(new char[bytes.size() + 1]) {
    bytes.copy(data_.get(), size_);
  }
  Slice slice() const { return Slice(data_.get(), size_); }

 private:
  size_t size_;
  std::unique_ptr<char[]> data_;
};

std::string Truncate(Random* rng, const std::string& in) {
  return in.substr(0, rng->Uniform(in.size()));  // strictly shorter
}

std::string FlipBits(Random* rng, std::string in) {
  const int flips = 1 + static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < flips; ++i) {
    in[rng->Uniform(in.size())] ^= static_cast<char>(1u << rng->Uniform(8));
  }
  return in;
}

std::string Splice(Random* rng, const std::string& a, const std::string& b) {
  return a.substr(0, rng->Uniform(a.size() + 1)) +
         b.substr(rng->Uniform(b.size() + 1));
}

/// A dishonest length: just past the real one, far past it, or near the
/// top of the field's range.
uint64_t Inflated(Random* rng, uint64_t honest, uint64_t field_max) {
  switch (rng->Uniform(4)) {
    case 0:
      return honest + 1;
    case 1:
      return honest + 1 + rng->Uniform(1 << 20);
    case 2:
      return field_max;
    default:
      return field_max - rng->Uniform(64);
  }
}

// ---------------- EBP page frames ----------------

struct FrameImage {
  std::string bytes;                 // frames end to end, then zero fill
  std::vector<uint64_t> frame_ends;  // end offset of each frame
  std::vector<uint64_t> len_fields;  // offset of each frame's len field
};

FrameImage MakeFrames(Random* rng) {
  FrameImage img;
  const int frames = 1 + static_cast<int>(rng->Uniform(6));
  for (int i = 0; i < frames; ++i) {
    const uint32_t len = static_cast<uint32_t>(rng->Uniform(300));
    PutFixed32(&img.bytes, ebp::PageFrame::kMagic);
    PutFixed64(&img.bytes, rng->Next());  // key
    PutFixed64(&img.bytes, rng->Next());  // lsn
    img.len_fields.push_back(img.bytes.size());
    PutFixed32(&img.bytes, len);
    img.bytes.append(len, static_cast<char>('a' + i));
    img.frame_ends.push_back(img.bytes.size());
  }
  img.bytes.append(rng->Uniform(64), '\0');  // never-written segment tail
  return img;
}

/// Walks `bytes` and checks every reported frame lies inside them and the
/// frames tile from offset 0. Returns how many frames were reported.
size_t WalkFrames(const std::string& bytes) {
  const ExactCopy copy(bytes);
  const Slice seg = copy.slice();
  size_t frames = 0;
  uint64_t next = 0;
  ebp::PageFrame::ForEach(seg, [&](ebp::PageKey key, uint64_t lsn,
                                   uint64_t off, uint32_t len) {
    EXPECT_EQ(off, next);
    ASSERT_LE(off, seg.size());
    ASSERT_GE(seg.size() - off, ebp::PageFrame::kHeaderSize);
    ASSERT_LE(len, seg.size() - off - ebp::PageFrame::kHeaderSize);
    ebp::PageKey k;
    uint64_t l;
    uint32_t n;
    ASSERT_TRUE(ebp::PageFrame::Parse(
        Slice(seg.data() + off, seg.size() - off), &k, &l, &n));
    EXPECT_EQ(k, key);
    EXPECT_EQ(l, lsn);
    EXPECT_EQ(n, len);
    // Touch the frame's last byte: an overrun would land in the redzone.
    if (len > 0) {
      volatile char last = seg.data()[off + ebp::PageFrame::kHeaderSize +
                                      len - 1];
      (void)last;
    }
    next = off + ebp::PageFrame::kHeaderSize + len;
    frames++;
  });
  return frames;
}

TEST(DecoderMutationTest, PageFrameWalkStaysInBounds) {
  Random rng(0x45425047);
  for (int round = 0; round < kRounds; ++round) {
    const FrameImage a = MakeFrames(&rng);
    const FrameImage b = MakeFrames(&rng);
    ASSERT_EQ(WalkFrames(a.bytes), a.frame_ends.size());

    // Truncated: exactly the frames wholly before the cut survive.
    const std::string cut = Truncate(&rng, a.bytes);
    size_t whole = 0;
    for (uint64_t end : a.frame_ends) whole += end <= cut.size() ? 1 : 0;
    EXPECT_EQ(WalkFrames(cut), whole);

    WalkFrames(FlipBits(&rng, a.bytes));
    WalkFrames(Splice(&rng, a.bytes, b.bytes));

    // Inflated len field: the walk stops before that frame.
    const size_t victim = rng.Uniform(a.len_fields.size());
    std::string inflated = a.bytes;
    const uint64_t honest = DecodeFixed32(inflated.data() +
                                          a.len_fields[victim]);
    const uint32_t bad =
        static_cast<uint32_t>(Inflated(&rng, honest, UINT32_MAX));
    std::string field;
    PutFixed32(&field, bad);
    inflated.replace(a.len_fields[victim], 4, field);
    const uint64_t room = inflated.size() - a.len_fields[victim] - 4;
    if (bad > room) {
      EXPECT_EQ(WalkFrames(inflated), victim);
    } else {
      WalkFrames(inflated);
    }

    // Parse alone on a prefix shorter than a header rejects it without
    // reading past what it is given.
    const ExactCopy head(
        a.bytes.substr(0, rng.Uniform(ebp::PageFrame::kHeaderSize)));
    ebp::PageKey k;
    uint64_t l;
    uint32_t n;
    EXPECT_FALSE(ebp::PageFrame::Parse(head.slice(), &k, &l, &n));
  }
}

// ---------------- SegmentRing header ----------------

std::string MakeHeader(Random* rng) {
  std::string h = astore::SegmentRing::EncodeHeader(
      static_cast<astore::SegmentStatus>(rng->Uniform(4)), rng->Next());
  h.resize(astore::SegmentRing::kHeaderSize, '\0');
  return h;
}

/// Decodes `bytes`; when accepted, the status must be a known value.
bool DecodeHeaderChecked(const std::string& bytes) {
  const ExactCopy copy(bytes);
  astore::SegmentStatus status;
  uint64_t start_lsn;
  if (!astore::SegmentRing::DecodeHeader(copy.slice(), &status, &start_lsn)) {
    return false;
  }
  EXPECT_LE(static_cast<uint32_t>(status),
            static_cast<uint32_t>(astore::SegmentStatus::kError));
  return true;
}

TEST(DecoderMutationTest, SegmentHeaderRejectsDamage) {
  Random rng(0x5245444F);
  constexpr size_t kSealed = 20;  // magic, status, start LSN, CRC
  for (int round = 0; round < kRounds; ++round) {
    const std::string a = MakeHeader(&rng);
    const std::string b = MakeHeader(&rng);
    ASSERT_TRUE(DecodeHeaderChecked(a));

    const std::string cut = Truncate(&rng, a);
    if (cut.size() < kSealed) {
      EXPECT_FALSE(DecodeHeaderChecked(cut));
    }

    // CRC-32C catches every 1-4 bit error in the sealed bytes.
    const std::string flipped = FlipBits(&rng, a);
    const bool sealed_changed =
        flipped.compare(0, kSealed, a, 0, kSealed) != 0;
    if (sealed_changed) {
      EXPECT_FALSE(DecodeHeaderChecked(flipped));
    } else {
      EXPECT_TRUE(DecodeHeaderChecked(flipped));
    }

    DecodeHeaderChecked(Splice(&rng, a, b));

    // The header has no length field; its one range-checked field is the
    // status. An out-of-range status under a valid seal is rejected.
    std::string resealed;
    PutFixed32(&resealed, astore::SegmentRing::kHeaderMagic);
    PutFixed32(&resealed, static_cast<uint32_t>(Inflated(&rng, 3, UINT32_MAX)));
    PutFixed64(&resealed, rng.Next());
    PutFixed32(&resealed, MaskCrc(Crc32c(Slice(resealed))));
    EXPECT_FALSE(DecodeHeaderChecked(resealed));
  }
}

// ---------------- REDO batch payload ----------------

struct Batch {
  std::vector<std::string> payloads;
  std::string bytes;
};

Batch MakeBatch(Random* rng) {
  Batch b;
  const int count = 1 + static_cast<int>(rng->Uniform(5));
  for (int i = 0; i < count; ++i) {
    b.payloads.emplace_back(rng->Uniform(200), static_cast<char>('A' + i));
  }
  b.bytes = logstore::EncodeBatchPayload(b.payloads);
  return b;
}

/// Decodes `bytes` behind a sentinel record. Accepted: the records are
/// bounded by the input and numbered from `first_lsn`. Rejected: the
/// sentinel is all that `out` holds.
bool DecodeBatchChecked(const std::string& bytes) {
  constexpr uint64_t kFirstLsn = 1000;
  const ExactCopy copy(bytes);
  std::vector<astore::LogRecord> out = {{7, "sentinel"}};
  const bool ok = logstore::DecodeBatchPayload(copy.slice(), kFirstLsn, &out);
  if (!ok) {
    EXPECT_EQ(out.size(), 1u);
    return false;
  }
  EXPECT_LE(out.size() - 1, bytes.size());
  uint64_t payload_bytes = 0;
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i].lsn, kFirstLsn + i - 1);
    payload_bytes += out[i].payload.size();
  }
  EXPECT_LE(payload_bytes, bytes.size());
  return true;
}

TEST(DecoderMutationTest, BatchPayloadRejectsDamage) {
  Random rng(0x5245444F4C4F47);
  for (int round = 0; round < kRounds; ++round) {
    const Batch a = MakeBatch(&rng);
    const Batch b = MakeBatch(&rng);
    ASSERT_TRUE(DecodeBatchChecked(a.bytes));

    // Every strict prefix cuts into the last record.
    EXPECT_FALSE(DecodeBatchChecked(Truncate(&rng, a.bytes)));
    DecodeBatchChecked(FlipBits(&rng, a.bytes));
    DecodeBatchChecked(Splice(&rng, a.bytes, b.bytes));

    // Inflate the record count or one record's length prefix. A larger
    // count, or a length past the bytes that follow, must be rejected.
    std::string inflated;
    const size_t victim = rng.Uniform(a.payloads.size() + 1);
    if (victim == a.payloads.size()) {
      PutVarint32(&inflated, static_cast<uint32_t>(Inflated(
                                 &rng, a.payloads.size(), UINT32_MAX)));
    } else {
      PutVarint32(&inflated, static_cast<uint32_t>(a.payloads.size()));
    }
    uint64_t claimed = 0;
    size_t after_prefix = 0;
    for (size_t i = 0; i < a.payloads.size(); ++i) {
      uint64_t len = a.payloads[i].size();
      if (i == victim) len = claimed = Inflated(&rng, len, UINT64_MAX);
      PutVarint64(&inflated, len);
      if (i == victim) after_prefix = inflated.size();
      inflated += a.payloads[i];
    }
    const bool overclaims = victim == a.payloads.size() ||
                            claimed > inflated.size() - after_prefix;
    if (overclaims) {
      EXPECT_FALSE(DecodeBatchChecked(inflated));
    } else {
      DecodeBatchChecked(inflated);
    }
  }
}

}  // namespace
}  // namespace vedb
