// Little-endian byte-buffer encoder/decoder for the on-disk format.
//
// All on-disk structures in this repository are serialized explicitly through
// these helpers (never by memcpy of host structs), so the disk image format
// is independent of host endianness, padding, and ABI.

#ifndef LFS_UTIL_CODEC_H_
#define LFS_UTIL_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace lfs {

// Writes fixed-width little-endian integers and raw bytes into a caller's
// buffer, in place. Over-writes set a sticky error flag instead of writing
// past the end; callers check ok() once after encoding a full structure.
class Encoder {
 public:
  explicit Encoder(std::span<uint8_t> out) : out_(out) {}

  void PutU8(uint8_t v) { PutLittleEndian(v, 1); }
  void PutU16(uint16_t v) { PutLittleEndian(v, 2); }
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  void PutBytes(std::span<const uint8_t> bytes) {
    if (Take(bytes.size())) {
      std::copy(bytes.begin(), bytes.end(), out_.begin() + (pos_ - bytes.size()));
    }
  }
  void PutString(std::string_view s) {
    PutBytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
  }
  // Length-prefixed (u16) string, for names.
  void PutLengthPrefixedString(std::string_view s) {
    PutU16(static_cast<uint16_t>(s.size()));
    PutString(s);
  }
  // Zero-fills the rest of the buffer.
  void ZeroRest() {
    std::fill(out_.begin() + pos_, out_.end(), uint8_t{0});
    pos_ = out_.size();
  }

  // The bytes written so far.
  std::span<const uint8_t> written() const { return out_.first(pos_); }
  size_t pos() const { return pos_; }
  bool ok() const { return !failed_; }

 private:
  // Claims the next `n` bytes. If they do not fit it claims none, returns
  // false and sets the error, and every later Put fails as well.
  bool Take(size_t n) {
    if (out_.size() - pos_ < n) {
      failed_ = true;
      pos_ = out_.size();
      return false;
    }
    pos_ += n;
    return true;
  }
  void PutLittleEndian(uint64_t v, int width) {
    if (!Take(width)) {
      return;
    }
    for (int i = 0; i < width; i++) {
      out_[pos_ - width + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  std::span<uint8_t> out_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// Reads fixed-width little-endian integers and raw bytes from a buffer.
// Over-reads set a sticky error flag instead of invoking UB; callers check
// ok() once after decoding a full structure.
class Decoder {
 public:
  explicit Decoder(std::span<const uint8_t> data) : data_(data) {}

  uint8_t GetU8() { return static_cast<uint8_t>(GetLittleEndian(1)); }
  uint16_t GetU16() { return static_cast<uint16_t>(GetLittleEndian(2)); }
  uint32_t GetU32() { return static_cast<uint32_t>(GetLittleEndian(4)); }
  uint64_t GetU64() { return GetLittleEndian(8); }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }

  void GetBytes(std::span<uint8_t> out) {
    if (remaining() < out.size()) {
      failed_ = true;
      std::memset(out.data(), 0, out.size());
      return;
    }
    std::memcpy(out.data(), data_.data() + pos_, out.size());
    pos_ += out.size();
  }

  std::string GetString(size_t n) {
    if (remaining() < n) {
      failed_ = true;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::string GetLengthPrefixedString() {
    uint16_t n = GetU16();
    return GetString(n);
  }

  void Skip(size_t n) {
    if (remaining() < n) {
      failed_ = true;
      pos_ = data_.size();
      return;
    }
    pos_ += n;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool ok() const { return !failed_; }

 private:
  uint64_t GetLittleEndian(int width) {
    if (remaining() < static_cast<size_t>(width)) {
      failed_ = true;
      pos_ = data_.size();
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < width; i++) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += width;
    return v;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace lfs

#endif  // LFS_UTIL_CODEC_H_
