module Dist = Ksurf_util.Dist

type t = {
  name : string;
  doc : string;
  service_cpu : Dist.t;
  calls_per_request : int;
  mix : (float * string) list;
  io_calls : (string * int) list;
  virt_cpu_penalty : float;
}

(* Per-request service parameters.  Relative ordering follows the
   suite's published request latencies: sphinx and moses are the long,
   compute-heavy requests; masstree/silo/specjbb are sub-millisecond
   in-memory services; xapian/img-dnn/shore sit between. *)

let xapian =
  {
    name = "xapian";
    doc = "search engine: index lookups via mmap'd files";
    service_cpu = Dist.lognormal ~median:2.2e6 ~sigma:0.5;
    calls_per_request = 24;
    mix =
      [
        (4.0, "pread64");
        (3.0, "read");
        (2.0, "mmap");
        (1.0, "munmap");
        (2.0, "stat");
        (1.5, "open");
        (1.5, "close");
        (2.0, "futex_wake");
        (1.0, "madvise");
      ];
    io_calls = [];
    virt_cpu_penalty = 1.08 (* large mmap'd index: EPT-walk heavy *);
  }

let masstree =
  {
    name = "masstree";
    doc = "in-memory key-value store: network + RCU-style reads";
    service_cpu = Dist.lognormal ~median:3.5e5 ~sigma:0.4;
    calls_per_request = 8;
    mix =
      [
        (3.0, "recvfrom");
        (3.0, "sendto");
        (1.5, "futex_wait");
        (1.5, "futex_wake");
        (0.5, "epoll_wait");
        (0.5, "mmap");
      ];
    io_calls = [];
    virt_cpu_penalty = 1.05;
  }

let moses =
  {
    name = "moses";
    doc = "statistical machine translation: phrase tables in mapped memory";
    service_cpu = Dist.lognormal ~median:8.8e6 ~sigma:0.55;
    calls_per_request = 30;
    mix =
      [
        (4.0, "mmap");
        (2.0, "munmap");
        (3.0, "brk");
        (2.0, "madvise");
        (7.0, "pread64");
        (4.0, "read");
        (2.0, "open");
        (2.0, "close");
        (2.0, "stat");
        (1.0, "futex_wake");
      ];
    io_calls = [];
    virt_cpu_penalty = 1.12 (* huge phrase tables: worst nested-paging case *);
  }

let sphinx =
  {
    name = "sphinx";
    doc = "speech recognition: long compute with model paging";
    service_cpu = Dist.lognormal ~median:1.55e7 ~sigma:0.55;
    calls_per_request = 38;
    mix =
      [
        (6.0, "read");
        (5.0, "pread64");
        (4.0, "mmap");
        (2.0, "munmap");
        (3.0, "brk");
        (1.5, "madvise");
        (2.0, "open");
        (2.0, "close");
        (2.0, "fstat");
        (1.0, "futex_wait");
        (1.0, "futex_wake");
      ];
    io_calls = [];
    virt_cpu_penalty = 1.10 (* big acoustic models *);
  }

let img_dnn =
  {
    name = "img-dnn";
    doc = "handwriting recognition: dense compute, light kernel use";
    service_cpu = Dist.lognormal ~median:1.6e6 ~sigma:0.45;
    calls_per_request = 10;
    mix =
      [
        (3.0, "read");
        (2.0, "write");
        (2.0, "futex_wait");
        (2.0, "futex_wake");
        (1.0, "mmap");
      ];
    io_calls = [];
    virt_cpu_penalty = 1.05;
  }

let specjbb =
  {
    name = "specjbb";
    doc = "Java middleware: GC-driven memory traffic and futex churn";
    service_cpu = Dist.lognormal ~median:7e5 ~sigma:0.5;
    calls_per_request = 14;
    mix =
      [
        (4.0, "futex_wait");
        (4.0, "futex_wake");
        (2.0, "mmap");
        (2.0, "madvise");
        (1.0, "write");
      ];
    io_calls = [];
    virt_cpu_penalty = 1.06;
  }

let silo =
  {
    name = "silo";
    doc = "in-memory OLTP: cache/TLB sensitive, minimal kernel use";
    service_cpu = Dist.lognormal ~median:2.4e5 ~sigma:0.35;
    calls_per_request = 3;
    mix = [ (1.5, "futex_wake"); (1.0, "recvfrom"); (1.0, "sendto") ];
    io_calls = [];
    virt_cpu_penalty = 1.14;
  }

let shore =
  {
    name = "shore";
    doc = "disk-based OLTP: log writes and syncs dominate";
    service_cpu = Dist.lognormal ~median:1.0e6 ~sigma:0.5;
    calls_per_request = 12;
    mix =
      [
        (3.0, "pread64");
        (3.0, "pwrite64");
        (2.0, "lseek");
        (2.0, "futex_wake");
        (1.0, "fstat");
      ];
    io_calls = [ ("pwrite64", 8192); ("fsync", 16384) ]
    (* commit = data flush + journalled metadata: fsync, not fdatasync *);
    virt_cpu_penalty = 1.06;
  }

let all = [ xapian; masstree; moses; sphinx; img_dnn; specjbb; silo; shore ]

let by_name name = List.find_opt (fun a -> a.name = name) all
let names = List.map (fun a -> a.name) all

(* Uncontended per-call cost estimate: entry + a few hundred ns of work.
   I/O calls estimated at one device round trip plus transfer. *)
let per_call_estimate = 2_300.0

let io_estimate (name, size) =
  ignore name;
  90_000.0 +. (float_of_int size *. 0.5)

let mean_service_estimate t =
  Dist.mean_estimate t.service_cpu
  +. (float_of_int t.calls_per_request *. per_call_estimate)
  +. List.fold_left (fun acc io -> acc +. io_estimate io) 0.0 t.io_calls
