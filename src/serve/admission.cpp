#include "serve/admission.h"

#include <algorithm>
#include <cmath>

namespace aps::serve {

std::string_view tenant_of(std::string_view patient_id) {
  const auto slash = patient_id.find('/');
  if (slash == std::string_view::npos || slash == 0) {
    return "default";
  }
  return patient_id.substr(0, slash);
}

const char* overload_state_name(OverloadState state) {
  switch (state) {
    case OverloadState::kHealthy:
      return "healthy";
    case OverloadState::kDegrade:
      return "degrade";
    case OverloadState::kShed:
      return "shed";
  }
  return "?";
}

AdmissionController::AdmissionController(AdmissionConfig config,
                                         aps::obs::Registry& registry)
    : config_(std::move(config)), registry_(registry) {
  if (config_.latency_window == 0) config_.latency_window = 1;
  window_.resize(config_.latency_window, 0.0);
  window_scratch_.reserve(config_.latency_window);
  state_gauge_ = &registry_.gauge(
      "serve_overload_state", {},
      "admission overload rung: 0=healthy 1=degrade 2=shed");
  to_healthy_ = &registry_.counter("serve_overload_transitions_total",
                                   {{"to", "healthy"}},
                                   "overload state machine transitions");
  to_degrade_ = &registry_.counter("serve_overload_transitions_total",
                                   {{"to", "degrade"}},
                                   "overload state machine transitions");
  to_shed_ = &registry_.counter("serve_overload_transitions_total",
                                {{"to", "shed"}},
                                "overload state machine transitions");
  state_gauge_->set(0.0);
}

int AdmissionController::signal_level(double p99_us, double scale) const {
  if (config_.shed_p99_us > 0.0 && p99_us >= config_.shed_p99_us * scale) {
    return 2;
  }
  if (config_.degrade_p99_us > 0.0 &&
      p99_us >= config_.degrade_p99_us * scale) {
    return 1;
  }
  return 0;
}

void AdmissionController::observe_tick(double tick_us) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);

  window_[window_pos_] = tick_us;
  window_pos_ = (window_pos_ + 1) % window_.size();
  window_count_ = std::min(window_count_ + 1, window_.size());

  double p99_us = 0.0;
  if (window_count_ > 0) {
    window_scratch_.assign(window_.begin(),
                           window_.begin() +
                               static_cast<std::ptrdiff_t>(window_count_));
    const auto rank = static_cast<std::size_t>(
        std::floor(0.99 * static_cast<double>(window_count_ - 1)));
    std::nth_element(window_scratch_.begin(),
                     window_scratch_.begin() + static_cast<std::ptrdiff_t>(rank),
                     window_scratch_.end());
    p99_us = window_scratch_[rank];
  }

  const auto current = state_.load(std::memory_order_relaxed);
  const int entry = signal_level(p99_us, 1.0);
  if (entry > static_cast<int>(current)) {
    // Escalate immediately — overload waits for nobody.
    set_state_locked(static_cast<OverloadState>(entry));
    return;
  }
  if (current == OverloadState::kHealthy) {
    dwell_ = 0;
    return;
  }
  // De-escalation: the p99 must sit below recover_ratio of the rung we
  // would step down *past* (i.e. it no longer justifies even the rung
  // below) for min_dwell_ticks consecutive ticks; then step one rung.
  const int recovered = signal_level(p99_us, config_.recover_ratio);
  if (recovered < static_cast<int>(current)) {
    if (++dwell_ >= config_.min_dwell_ticks) {
      set_state_locked(
          static_cast<OverloadState>(static_cast<int>(current) - 1));
    }
  } else {
    dwell_ = 0;
  }
}

void AdmissionController::set_state_locked(OverloadState next) {
  state_.store(next, std::memory_order_relaxed);
  dwell_ = 0;
  state_gauge_->set(static_cast<double>(next));
  switch (next) {
    case OverloadState::kHealthy:
      to_healthy_->add(1);
      break;
    case OverloadState::kDegrade:
      to_degrade_->add(1);
      break;
    case OverloadState::kShed:
      to_shed_->add(1);
      break;
  }
}

AdmissionController::Tenant& AdmissionController::tenant_locked(
    std::string_view name) {
  auto it = tenant_ids_.find(std::string(name));
  if (it != tenant_ids_.end()) return *tenants_[it->second];

  auto tenant = std::make_unique<Tenant>();
  tenant->name = std::string(name);
  TenantQuota quota = config_.default_quota;
  for (const auto& [key, value] : config_.tenant_quotas) {
    if (key == name) {
      quota = value;
      break;
    }
  }
  tenant->rate = quota.ticks_per_sec;
  tenant->burst = quota.burst > 0.0 ? quota.burst : quota.ticks_per_sec;
  tenant->tokens = tenant->burst;
  tenant->last_refill = std::chrono::steady_clock::now();
  tenant->shed_open = &registry_.counter(
      "serve_shed_total", {{"reason", "open"}, {"tenant", tenant->name}},
      "opens/ticks refused by admission control");
  tenant->shed_tick = &registry_.counter(
      "serve_shed_total", {{"reason", "tick"}, {"tenant", tenant->name}},
      "opens/ticks refused by admission control");

  const auto index = static_cast<std::uint32_t>(tenants_.size());
  tenants_.push_back(std::move(tenant));
  tenant_ids_.emplace(std::string(name), index);
  return *tenants_[index];
}

std::uint32_t AdmissionController::tenant_index(std::string_view tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  tenant_locked(tenant);
  return tenant_ids_.at(std::string(tenant));
}

void AdmissionController::refill_locked(
    Tenant& tenant, std::chrono::steady_clock::time_point now) {
  if (tenant.rate <= 0.0) return;  // unlimited
  const std::chrono::duration<double> dt = now - tenant.last_refill;
  tenant.last_refill = now;
  tenant.tokens =
      std::min(tenant.burst, tenant.tokens + dt.count() * tenant.rate);
}

bool AdmissionController::admit_open(std::string_view tenant) {
  if (!enabled()) return true;
  if (state_.load(std::memory_order_relaxed) != OverloadState::kShed) {
    return true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  tenant_locked(tenant).shed_open->add(1);
  return false;
}

std::size_t AdmissionController::admit_ticks(std::uint32_t tenant_index,
                                             std::size_t count) {
  if (!enabled() || count == 0) return count;
  if (state_.load(std::memory_order_relaxed) != OverloadState::kShed) {
    return count;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (tenant_index >= tenants_.size()) return count;
  Tenant& tenant = *tenants_[tenant_index];
  if (tenant.rate <= 0.0) return count;  // unlimited tenants never shed
  refill_locked(tenant, std::chrono::steady_clock::now());
  const auto admitted = std::min(
      count, static_cast<std::size_t>(std::max(0.0, tenant.tokens)));
  tenant.tokens -= static_cast<double>(admitted);
  if (admitted < count) {
    tenant.shed_tick->add(static_cast<std::uint64_t>(count - admitted));
  }
  return admitted;
}

std::uint64_t AdmissionController::shed_opens_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& tenant : tenants_) total += tenant->shed_open->value();
  return total;
}

std::uint64_t AdmissionController::shed_ticks_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& tenant : tenants_) total += tenant->shed_tick->value();
  return total;
}

}  // namespace aps::serve
