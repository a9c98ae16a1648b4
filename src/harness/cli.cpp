#include "harness/cli.hpp"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <optional>

#include "harness/registry.hpp"

namespace bloom87::harness {
namespace {

template <typename T>
bool parse_number(const std::string& text, T* out) {
    T v{};
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
    *out = v;
    return true;
}

[[nodiscard]] std::vector<std::string> split_list(const std::string& text) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        if (comma == std::string::npos) {
            parts.push_back(text.substr(start));
            break;
        }
        parts.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return parts;
}

/// CLI conveniences for the net-flavored spellings: on net/ compositions
/// lost_write is message loss, delayed_visibility is message delay, and
/// port_crash is a server crash, so the flags accept those names directly.
[[nodiscard]] std::optional<fault_class> parse_fault_name(
    const std::string& name) {
    if (name == "loss") return fault_class::lost_write;
    if (name == "delay") return fault_class::delayed_visibility;
    if (name == "server_crash") return fault_class::port_crash;
    return parse_fault_class(name);
}

/// One "num/den" or "den" (= 1/den) rate.
[[nodiscard]] bool parse_rate(const std::string& text, std::uint64_t* num,
                              std::uint64_t* den) {
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos) {
        *num = 1;
        return parse_number(text, den) && *den != 0;
    }
    return parse_number(text.substr(0, slash), num) &&
           parse_number(text.substr(slash + 1), den) && *den != 0;
}

}  // namespace

bool flag_parser::assign(const option& o, const std::string& text) {
    switch (o.k) {
        case kind::flag:
            return false;  // flags never take a value
        case kind::string:
            *static_cast<std::string*>(o.out) = text;
            return true;
        case kind::int32:
            return parse_number(text, static_cast<int*>(o.out));
        case kind::uint32:
            return parse_number(text, static_cast<unsigned*>(o.out));
        case kind::size:
            return parse_number(text, static_cast<std::size_t*>(o.out));
        case kind::uint64:
            return parse_number(text, static_cast<std::uint64_t*>(o.out));
    }
    return false;
}

bool flag_parser::parse(int argc, char** argv) {
    std::size_t next_positional = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            print_usage(std::cout);
            help_ = true;
            return true;
        }
        if (arg.rfind("--", 0) == 0) {
            std::string name = arg.substr(2);
            std::string value;
            bool has_value = false;
            const std::size_t eq = name.find('=');
            if (eq != std::string::npos) {
                value = name.substr(eq + 1);
                name.resize(eq);
                has_value = true;
            }
            const option* match = nullptr;
            for (const option& o : opts_) {
                if (o.name == name) {
                    match = &o;
                    break;
                }
            }
            if (match == nullptr) {
                std::cerr << program_ << ": unknown flag --" << name << "\n";
                print_usage(std::cerr);
                return false;
            }
            if (match->k == kind::flag) {
                if (has_value) {
                    std::cerr << program_ << ": --" << name
                              << " takes no value\n";
                    return false;
                }
                *static_cast<bool*>(match->out) = true;
                continue;
            }
            if (!has_value) {
                if (i + 1 >= argc) {
                    std::cerr << program_ << ": --" << name
                              << " needs a value\n";
                    print_usage(std::cerr);
                    return false;
                }
                value = argv[++i];
            }
            if (!assign(*match, value)) {
                std::cerr << program_ << ": bad value '" << value
                          << "' for --" << name << "\n";
                return false;
            }
            continue;
        }
        if (next_positional < positionals_.size()) {
            if (!parse_number(arg, positionals_[next_positional].out)) {
                std::cerr << program_ << ": bad value '" << arg << "' for "
                          << positionals_[next_positional].name << "\n";
                return false;
            }
            ++next_positional;
            continue;
        }
        std::cerr << program_ << ": unexpected argument '" << arg << "'\n";
        print_usage(std::cerr);
        return false;
    }
    return true;
}

void flag_parser::print_usage(std::ostream& os) const {
    os << "usage: " << program_;
    for (const positional& p : positionals_) os << " [" << p.name << "]";
    if (!opts_.empty()) os << " [flags]";
    os << "\n  " << description_ << "\n";
    for (const positional& p : positionals_) {
        os << "  " << p.name << ": " << p.help << " (default "
           << *p.out << ")\n";
    }
    for (const option& o : opts_) {
        os << "  --" << o.name;
        switch (o.k) {
            case kind::flag:
                break;
            case kind::string:
                os << " <str>";
                break;
            default:
                os << " <n>";
                break;
        }
        os << ": " << o.help;
        switch (o.k) {
            case kind::string: {
                const auto& v = *static_cast<std::string*>(o.out);
                if (!v.empty()) os << " (default " << v << ")";
                break;
            }
            case kind::int32:
                os << " (default " << *static_cast<int*>(o.out) << ")";
                break;
            case kind::uint32:
                os << " (default " << *static_cast<unsigned*>(o.out) << ")";
                break;
            case kind::size:
                os << " (default " << *static_cast<std::size_t*>(o.out) << ")";
                break;
            case kind::uint64:
                os << " (default " << *static_cast<std::uint64_t*>(o.out)
                   << ")";
                break;
            case kind::flag:
                break;
        }
        os << "\n";
    }
}

void common_flags::add_to(flag_parser& p) {
    p.add_string("register", "registry name of the register to drive",
                 &register_name);
    p.add_size("writers", "writer processors", &writers);
    p.add_size("readers", "reader processors", &readers);
    p.add_size("ops", "scripted ops per processor", &ops);
    p.add_uint64("seed", "workload/schedule seed", &seed);
    p.add_string("json", "write the run report (harness schema) to PATH",
                 &json_path);
    p.add_string("check",
                 "comma-separated checkers (bloom,fast,exhaustive,monitor,"
                 "regular,safe,race,none)",
                 &check);
    p.add_unsigned("duration-ms",
                   "timed run length (0 = scripted run, checkable)",
                   &duration_ms);
    p.add_unsigned("threads", "worker threads where applicable (0 = auto)",
                   &threads);
    p.add_flag("list", "print the register registry and exit", &list);
    p.add_string("fault",
                 "fault class (none,stale_read,lost_write,torn_value,"
                 "delayed_visibility,port_crash; aliases loss,delay,"
                 "server_crash) or a comma-separated list for a composed "
                 "plan; faulty/, repair/ and net/ registers only",
                 &fault);
    p.add_string("fault-rate",
                 "per-access trigger probability, 'num/den' or 'den' "
                 "(=1/den); comma-separated per class on composed plans "
                 "(the last rate repeats when shorter)",
                 &fault_rate);
    p.add_uint64("fault-seed", "seed of the fault plan's private rng",
                 &fault_seed);
    p.add_uint64("fault-at",
                 "inject at exactly the nth substrate access (0 = use rate; "
                 "single-class plans only)",
                 &fault_at);
    p.add_uint64("recover-after",
                 "net/ compositions: crashed servers rejoin after this many "
                 "further deliveries (0 = crash-stop forever)",
                 &recover_after);
    p.add_unsigned("crash-budget",
                   "net/ compositions: override of the protocol's crash "
                   "budget f (0 = protocol default)",
                   &crash_budget);
    p.add_unsigned("grace-ms",
                   "timed runs: grace before the driver's global op "
                   "deadline trips in-flight ops to `unavailable`",
                   &grace_ms);
    p.add_flag("online",
               "run the online atomicity verifier concurrently with the run",
               &online);
    p.add_flag("streaming",
               "run the bounded-memory streaming checker during the run "
               "(the only monitor that may watch a timed run)",
               &streaming);
    p.add_unsigned("stream-window",
                   "streaming checker: events certified operations stay "
                   "retained behind the frontier (memory only)",
                   &stream_window);
    p.add_unsigned("stream-stride",
                   "streaming checker: events between incremental checks",
                   &stream_stride);
    p.add_unsigned("clients",
                   "timed runs: multiplex this many open-loop paced clients "
                   "over the worker threads (0 = closed loop)",
                   &clients);
    p.add_uint64("client-pace-ns", "per-client inter-arrival time",
                 &client_pace_ns);
    p.add_string("ring-policy",
                 "per-thread ring backpressure: block (stall producers) or "
                 "drop (shed whole ops, counted in the report)",
                 &ring_policy);
    p.add_size("net-servers", "replica count for net/ compositions",
               &net_servers);
}

run_spec common_flags::to_spec() const {
    run_spec spec;
    spec.register_name = register_name;
    spec.load.writers = writers;
    spec.load.readers = readers;
    spec.load.ops_per_writer = ops;
    spec.load.ops_per_reader = ops;
    spec.seed = seed;
    spec.duration_ms = duration_ms;

    const std::vector<std::string> classes = split_list(fault);
    const std::vector<std::string> rates = split_list(fault_rate);
    if (classes.size() > 1) {
        // Composed multi-class plan: one entry per named class, each with
        // its own rate (the last rate repeats when the list is shorter).
        for (std::size_t i = 0; i < classes.size(); ++i) {
            const std::optional<fault_class> c = parse_fault_name(classes[i]);
            if (!c.has_value() || *c == fault_class::none) {
                std::cerr << "warning: unknown fault class '" << classes[i]
                          << "' dropped from the composed plan\n";
                continue;
            }
            fault_entry e;
            e.cls = *c;
            const std::string& r = rates[std::min(i, rates.size() - 1)];
            if (!parse_rate(r, &e.rate_num, &e.rate_den)) {
                std::cerr << "warning: bad --fault-rate '" << r
                          << "' for " << classes[i]
                          << " ignored (want 'num/den' or 'den')\n";
                e.rate_num = 1;
                e.rate_den = 64;
            }
            spec.fault.composed.push_back(e);
        }
    } else {
        const std::optional<fault_class> cls = parse_fault_name(fault);
        if (!cls.has_value()) {
            std::cerr << "warning: unknown fault class '" << fault
                      << "' ignored (known: none, stale_read, lost_write, "
                         "torn_value, delayed_visibility, port_crash and "
                         "aliases loss, delay, server_crash)\n";
        } else {
            spec.fault.cls = *cls;
        }
        std::uint64_t num = 1;
        std::uint64_t den = 64;
        if (!parse_rate(fault_rate, &num, &den)) {
            std::cerr << "warning: bad --fault-rate '" << fault_rate
                      << "' ignored (want 'num/den' or 'den')\n";
        } else {
            spec.fault.rate_num = num;
            spec.fault.rate_den = den;
        }
    }
    spec.fault.seed = fault_seed;
    spec.fault.at = fault_at;
    spec.fault.recover_after = recover_after;
    spec.fault.crash_budget = crash_budget;
    spec.grace_ms = grace_ms;
    spec.online_monitor = online;
    spec.streaming_monitor = streaming;
    spec.stream_window = stream_window;
    spec.stream_stride = stream_stride;
    spec.clients = clients;
    spec.client_pace_ns = client_pace_ns;
    if (ring_policy == "drop") {
        spec.ring = bloom87::harness::ring_policy::drop;
    } else if (ring_policy != "block") {
        std::cerr << "warning: unknown --ring-policy '" << ring_policy
                  << "' ignored (known: block, drop)\n";
    }
    spec.net_servers = net_servers;

    if (duration_ms == 0) {
        const registry_entry* e = find_register(register_name);
        // Fault runs always collect through the shared gamma log: the
        // injection position and the online verifier both live there.
        // Registers that record real accesses (the recording substrate,
        // net/ replica observers) also need the shared log, or the race
        // checker would have nothing to replay.
        spec.collect = (e != nullptr && (e->info.requires_log ||
                                         e->info.records_real_accesses)) ||
                               spec.fault.active() || spec.online_monitor
                           ? collect_mode::gamma
                           : collect_mode::per_thread;
    } else {
        // Timed runs collect nothing -- unless the streaming checker rides
        // along, which checks and discards a per_thread merge.
        spec.collect = streaming ? collect_mode::per_thread
                                 : collect_mode::none;
    }
    return spec;
}

void print_register_list(std::ostream& os) {
    os << "registered registers:\n";
    for (const registry_entry& e : registry()) {
        os << "  " << e.info.name;
        os << "  (writers " << e.info.min_writers << ".."
           << e.info.max_writers;
        if (!e.info.wait_free) os << ", blocking";
        if (e.info.records_real_accesses) os << ", records real accesses";
        if (!e.info.expected_atomic) os << ", KNOWN NOT ATOMIC";
        os << ")\n      " << e.info.description << "\n";
    }
}

}  // namespace bloom87::harness
