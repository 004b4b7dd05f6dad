#include "hyracks/batch.h"

#include "common/metrics.h"

namespace asterix::hyracks {

namespace {
metrics::Counter* BatchesEmittedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.batch.batches_emitted");
  return c;
}
metrics::Counter* BatchTuplesCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.batch.tuples");
  return c;
}
}  // namespace

void NoteBatchEmitted(size_t tuples) {
  BatchesEmittedCounter()->Add(1);
  BatchTuplesCounter()->Add(tuples);
}

}  // namespace asterix::hyracks
