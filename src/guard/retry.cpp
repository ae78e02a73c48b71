#include "guard/retry.h"

#include <chrono>
#include <thread>

namespace semsim {

void retry_sleep(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace semsim
