#include "common/fields.h"

#include "common/bitspan.h"
#include "common/check.h"

namespace dbtf {

Status FieldError(const char* what) {
  return Status::IoError(std::string("corrupt field: ") + what);
}

void WritePackedWords(const std::vector<BitWord>& words, std::size_t bits,
                      ByteWriter* w) {
  DBTF_DCHECK(words.size() == WordsForBits(bits),
              "packed bit vector does not match its logical length");
  for (const BitWord word : words) w->WriteU64(word);
}

Status ReadPackedWords(ByteReader* r, std::size_t bits,
                       std::vector<BitWord>* words) {
  const std::size_t count = WordsForBits(bits);
  if (count > r->remaining() / 8) {
    return FieldError("packed bits longer than the buffer");
  }
  words->assign(count, 0);
  for (BitWord& word : *words) {
    DBTF_ASSIGN_OR_RETURN(word, r->ReadU64());
  }
  if (!TailPaddingZero(BitSpan(words->data(), bits))) {
    return FieldError("packed bit padding set");
  }
  return Status::OK();
}

}  // namespace dbtf
