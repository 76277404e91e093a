#include "netsim/environment.h"

#include <algorithm>

#include "common/string_util.h"

namespace msql::netsim {

Environment::Environment(std::string coordinator_site)
    : coordinator_site_(ToLower(coordinator_site)) {
  network_.AddSite(coordinator_site_);
}

Status Environment::AddService(std::string_view service_name,
                               std::string_view site_name,
                               std::unique_ptr<relational::LocalEngine> engine,
                               LamCostModel cost_model) {
  std::string service = ToLower(service_name);
  std::string site = ToLower(site_name);
  if (lams_.count(service) > 0) {
    return Status::AlreadyExists("service '" + service +
                                 "' already registered");
  }
  network_.AddSite(site);
  ServiceEntry entry;
  entry.service_name = service;
  entry.site_name = site;
  directory_.emplace(service, entry);
  // Local executors report into the federation's tracer/metrics (both
  // are null sinks until enabled).
  engine->SetObservability(&tracer_, &metrics_);
  lams_.emplace(service, std::make_unique<Lam>(service, site,
                                               std::move(engine),
                                               cost_model));
  return Status::OK();
}

bool Environment::HasService(std::string_view service_name) const {
  return lams_.count(ToLower(service_name)) > 0;
}

Result<Lam*> Environment::GetLam(std::string_view service_name) {
  auto it = lams_.find(ToLower(service_name));
  if (it == lams_.end()) {
    return Status::NotFound("service '" + std::string(service_name) +
                            "' is not registered in the environment");
  }
  return it->second.get();
}

Result<const ServiceEntry*> Environment::GetServiceEntry(
    std::string_view service_name) const {
  auto it = directory_.find(ToLower(service_name));
  if (it == directory_.end()) {
    return Status::NotFound("service '" + std::string(service_name) +
                            "' is not in the resource directory");
  }
  return &it->second;
}

Status Environment::SetServiceConcurrency(std::string_view service_name,
                                          int limit) {
  std::string service = ToLower(service_name);
  if (lams_.count(service) == 0) {
    return Status::NotFound("service '" + service +
                            "' is not registered in the environment");
  }
  if (limit < 0) {
    return Status::InvalidArgument("service concurrency must be >= 0");
  }
  if (limit == 0) {
    queues_.erase(service);
  } else {
    ServiceQueue& queue = queues_[service];
    queue.limit = limit;
    queue.busy_until = {};
  }
  return Status::OK();
}

std::vector<std::string> Environment::ServiceNames() const {
  std::vector<std::string> out;
  out.reserve(lams_.size());
  for (const auto& [name, lam] : lams_) out.push_back(name);
  return out;
}

Result<CallOutcome> Environment::Call(std::string_view service_name,
                                      const LamRequest& request,
                                      int64_t at_micros) {
  auto lam_it = lams_.find(ToLower(service_name));
  if (lam_it == lams_.end()) {
    return Status::NotFound("service '" + std::string(service_name) +
                            "' is not registered in the environment");
  }
  Lam* lam = lam_it->second.get();
  auto outcome = CallImpl(lam, request, at_micros);
  // Feed the health monitor with the coordinator's view of the call:
  // a timed-out call failed even if the LAM secretly executed it, and a
  // network-level error (site down) is a failure with no usable timing.
  if (outcome.ok()) {
    health_.Record(lam->service_name(), lam->site_name(),
                   outcome->response.status.ok(), outcome->timed_out,
                   outcome->fault != FaultAction::kNone,
                   outcome->timing.end_micros - outcome->timing.start_micros,
                   outcome->timing.queue_micros);
  } else {
    health_.Record(lam->service_name(), lam->site_name(), /*ok=*/false,
                   /*timed_out=*/false, /*faulted=*/false,
                   /*latency_micros=*/0);
  }
  return outcome;
}

Result<CallOutcome> Environment::CallImpl(Lam* lam, const LamRequest& request,
                                          int64_t at_micros) {
  FaultDecision fault =
      fault_injector_.Decide(lam->service_name(), request.type);

  CallOutcome outcome;
  outcome.timing.start_micros = at_micros;
  outcome.fault = fault.action;

  // One message leg: models the transfer, accounts it to this call and
  // emits its "net.send" span (the message-level view of §4.3's data
  // flow). `delivered` is false for a leg that is sent and charged but
  // never arrives.
  auto send = [&](const std::string& from, const std::string& to,
                  int64_t bytes, int64_t leg_start, const char* direction,
                  bool delivered) -> Result<int64_t> {
    MSQL_ASSIGN_OR_RETURN(int64_t micros,
                          network_.TransferMicros(from, to, bytes));
    outcome.messages += 1;
    outcome.bytes += bytes;
    metrics_.Inc("net.messages");
    metrics_.Inc("net.bytes", bytes);
    metrics_.Observe("net.transfer_micros", micros);
    if (tracer_.enabled()) {
      uint64_t span = tracer_.StartSpan("net.send", "net", leg_start);
      tracer_.Annotate(span, "dir", direction);
      tracer_.Annotate(span, "from", from);
      tracer_.Annotate(span, "to", to);
      tracer_.Annotate(span, "bytes", bytes);
      if (!delivered) tracer_.Annotate(span, "lost", "true");
      tracer_.EndSpan(span, leg_start + micros);
    }
    return micros;
  };
  // The LAM handles the request locally; traced as a "lam" span so the
  // simulated timeline shows where service time goes. When the service
  // has a concurrency limit, the request first waits in the admission
  // queue until one of the `limit` servers frees up — the wait lands in
  // timing.queue_micros and shifts everything downstream of it.
  auto handle = [&](int64_t arrival) -> LamResponse {
    int64_t service_start = arrival;
    ServiceQueue* queue = nullptr;
    auto queue_it = queues_.find(lam->service_name());
    if (queue_it != queues_.end() && queue_it->second.limit > 0) {
      queue = &queue_it->second;
      if (static_cast<int>(queue->busy_until.size()) >= queue->limit) {
        int64_t free_at = queue->busy_until.top();
        queue->busy_until.pop();
        service_start = std::max(arrival, free_at);
      }
    }
    outcome.timing.queue_micros = service_start - arrival;
    if (outcome.timing.queue_micros > 0) {
      metrics_.Observe("lam.queue_micros", outcome.timing.queue_micros);
    }
    LamResponse response = lam->Handle(request, &outcome.timing.service_micros);
    if (queue) {
      queue->busy_until.push(service_start + outcome.timing.service_micros);
    }
    metrics_.Observe("lam.service_micros", outcome.timing.service_micros);
    if (tracer_.enabled()) {
      uint64_t span = tracer_.StartSpan(
          std::string("lam:") + std::string(LamRequestTypeName(request.type)),
          "lam", service_start);
      tracer_.Annotate(span, "service", lam->service_name());
      if (outcome.timing.queue_micros > 0) {
        tracer_.Annotate(span, "queue_micros", outcome.timing.queue_micros);
      }
      tracer_.EndSpan(span,
                      service_start + outcome.timing.service_micros);
    }
    return response;
  };

  metrics_.Inc("rpc.calls");
  if (fault.action != FaultAction::kNone) {
    metrics_.Inc(std::string("fault.") +
                 std::string(FaultActionName(fault.action)));
  }

  MSQL_ASSIGN_OR_RETURN(
      outcome.timing.request_micros,
      send(coordinator_site_, lam->site_name(), request.WireBytes(),
           at_micros, "request",
           fault.action != FaultAction::kLostRequest));
  if (fault.action == FaultAction::kLatencySpike) {
    outcome.timing.request_micros += fault.extra_latency_micros;
  }

  switch (fault.action) {
    case FaultAction::kLostRequest:
      // The message was sent (and accounted) but never arrives; the
      // coordinator gives up after the call timeout.
      outcome.timed_out = true;
      outcome.response.status = Status::Unavailable(
          "timeout: no response to " +
          std::string(LamRequestTypeName(request.type)) + " from '" +
          lam->service_name() + "' (request lost)");
      outcome.timing.end_micros = at_micros + call_timeout_micros_;
      return outcome;
    case FaultAction::kReject: {
      // The LAM refuses without dispatching: a definite, undelivered
      // failure the caller may safely re-send.
      outcome.response.status = Status::Unavailable(
          "injected transient fault: '" + lam->service_name() +
          "' refused " + std::string(LamRequestTypeName(request.type)));
      MSQL_ASSIGN_OR_RETURN(
          outcome.timing.response_micros,
          send(lam->site_name(), coordinator_site_,
               outcome.response.WireBytes(),
               at_micros + outcome.timing.request_micros, "response",
               true));
      outcome.timing.end_micros = at_micros +
                                  outcome.timing.request_micros +
                                  outcome.timing.response_micros;
      return outcome;
    }
    case FaultAction::kLostResponse: {
      // The LDBMS executes the request — state changes, locks move —
      // but the acknowledgement vanishes. The coordinator only sees a
      // timeout, indistinguishable from kLostRequest.
      LamResponse executed =
          handle(at_micros + outcome.timing.request_micros);
      // Account the doomed response message.
      (void)send(lam->site_name(), coordinator_site_, executed.WireBytes(),
                 at_micros + outcome.timing.request_micros +
                     outcome.timing.queue_micros +
                     outcome.timing.service_micros,
                 "response", false);
      outcome.timed_out = true;
      outcome.request_delivered = true;
      outcome.response.status = Status::Unavailable(
          "timeout: no response to " +
          std::string(LamRequestTypeName(request.type)) + " from '" +
          lam->service_name() + "' (response lost)");
      outcome.timing.end_micros = at_micros + call_timeout_micros_;
      return outcome;
    }
    case FaultAction::kNone:
    case FaultAction::kLatencySpike:
      break;
  }

  outcome.request_delivered = true;
  outcome.response = handle(at_micros + outcome.timing.request_micros);
  MSQL_ASSIGN_OR_RETURN(
      outcome.timing.response_micros,
      send(lam->site_name(), coordinator_site_,
           outcome.response.WireBytes(),
           at_micros + outcome.timing.request_micros +
               outcome.timing.queue_micros + outcome.timing.service_micros,
           "response", true));
  outcome.timing.end_micros =
      at_micros + outcome.timing.request_micros +
      outcome.timing.queue_micros + outcome.timing.service_micros +
      outcome.timing.response_micros;
  return outcome;
}

}  // namespace msql::netsim
