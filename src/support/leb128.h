// LEB128 variable-length integer encoding, plus byte-stream reader/writer
// helpers shared by the Wasm binary encoder and decoder.
#ifndef SRC_SUPPORT_LEB128_H_
#define SRC_SUPPORT_LEB128_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace nsf {

// Appends unsigned/signed LEB128 encodings of `value` to `out`.
void WriteVarU32(std::vector<uint8_t>& out, uint32_t value);
void WriteVarU64(std::vector<uint8_t>& out, uint64_t value);
void WriteVarS32(std::vector<uint8_t>& out, int32_t value);
void WriteVarS64(std::vector<uint8_t>& out, int64_t value);

// Fixed-width little-endian writers (the inverses of ByteReader's
// ReadFixedU32/ReadFixedU64/ReadF64), used by binary container formats that
// need positionally stable header fields (e.g. the compiled-artifact codec).
void WriteFixedU32(std::vector<uint8_t>& out, uint32_t value);
void WriteFixedU64(std::vector<uint8_t>& out, uint64_t value);
void WriteF64(std::vector<uint8_t>& out, double value);

// VarU32-length-prefixed string/bytes, the convention both the Wasm encoder
// (name/section payloads) and the artifact codec use.
void WriteString(std::vector<uint8_t>& out, const std::string& s);
void WriteBytes(std::vector<uint8_t>& out, const std::vector<uint8_t>& bytes);

// A bounds-checked forward reader over a byte buffer. All Read* methods set
// `ok()` to false (and return 0) on malformed or truncated input instead of
// throwing; callers check `ok()` once at a convenient boundary.
//
// ReadByte and the one-byte encodings of ReadVarU32/ReadVarS32/ReadVarS64
// (values 0..127 and -64..63, the common case in both the Wasm and artifact
// formats) are decoded inline. Every other case, including any read after a
// failure, takes the out-of-line decoder with its bound and canonical-form
// checks.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf) : ByteReader(buf.data(), buf.size()) {}

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  size_t size() const { return size_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ >= size_; }

  uint8_t ReadByte() {
    if (pos_ >= size_) [[unlikely]] {
      Fail();
      return 0;
    }
    return data_[pos_++];
  }
  uint8_t PeekByte();
  uint32_t ReadVarU32() { return OneByte() ? data_[pos_++] : ReadVarU32Slow(); }
  uint64_t ReadVarU64();
  int32_t ReadVarS32() { return OneByte() ? SignExtend7(data_[pos_++]) : ReadVarS32Slow(); }
  int64_t ReadVarS64() { return OneByte() ? SignExtend7(data_[pos_++]) : ReadVarS64Slow(); }
  // Block types are encoded as a signed 33-bit LEB; MVP only uses the
  // single-byte negative forms, but we decode per spec.
  int64_t ReadVarS33();
  uint32_t ReadFixedU32();  // little-endian
  uint64_t ReadFixedU64();  // little-endian
  float ReadF32();
  double ReadF64();
  // Reads `n` raw bytes into `out`; fails if fewer remain.
  bool ReadBytes(size_t n, std::vector<uint8_t>* out);
  std::string ReadString(size_t n);
  bool Skip(size_t n);

 private:
  void Fail() { ok_ = false; }
  // True when the next byte is a complete LEB128 encoding (no continuation
  // bit) and the reader has not failed.
  bool OneByte() const { return ok_ && pos_ < size_ && data_[pos_] < 0x80; }
  // The value of a one-byte signed LEB128: bit 6 is the sign.
  static int32_t SignExtend7(uint8_t byte) { return static_cast<int32_t>(byte ^ 0x40) - 0x40; }
  uint32_t ReadVarU32Slow();
  int32_t ReadVarS32Slow();
  int64_t ReadVarS64Slow();

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace nsf

#endif  // SRC_SUPPORT_LEB128_H_
