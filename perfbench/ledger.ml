(* Benchmark-side measurement: one monotonic clock, spans kept in memory
   until the run ends, order statistics, GC counters and metric records.
   Nothing in here reaches into the library; the workloads wrap their own
   spans around calls into each layer's public functions. *)

(* Every timing in the benchmark reads this clock (CLOCK_MONOTONIC). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- spans ---- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, [-1] at top level *)
  op : int;      (** the operation (request, suite, batch) it belongs to *)
  start : float;
  dur : float;
}

type tracer = {
  on : bool;
  phase : string;
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : (int * float) list;  (** open spans, innermost first *)
  mutable op : int;
}

let tracer ~on phase =
  { on; phase; spans = []; next_id = 0; stack = []; op = 0 }

let off = tracer ~on:false "off"

let set_op tr op = tr.op <- op

let fresh_id tr =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  id

let innermost tr = match tr.stack with (p, _) :: _ -> p | [] -> -1

let add tr ~id ~parent name ~start ~dur =
  tr.spans <- { id; name; parent; op = tr.op; start; dur } :: tr.spans

(* [span tr name f] times [f] as a child of the innermost open span. *)
let span tr name f =
  if not tr.on then f ()
  else begin
    let id = fresh_id tr and parent = innermost tr in
    let start = now () in
    tr.stack <- (id, start) :: tr.stack;
    Fun.protect
      ~finally:(fun () ->
        tr.stack <- List.tl tr.stack;
        add tr ~id ~parent name ~start ~dur:(now () -. start))
      f
  end

(* A child of the innermost open span whose duration the library already
   measured and returned (e.g. the loader's per-batch sampling time). *)
let record tr name dur =
  if tr.on then
    let start = match tr.stack with (_, s) :: _ -> s | [] -> now () in
    add tr ~id:(fresh_id tr) ~parent:(innermost tr) name ~start ~dur

type agg = { calls : int; total : float; self : float }

(* Per span name: call count, total time, and self time (the span's
   duration minus that of its direct children). *)
let aggregate tr =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.dur +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    tr.spans;
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let c = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let a =
        Option.value ~default:{ calls = 0; total = 0.; self = 0. }
          (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        { calls = a.calls + 1; total = a.total +. s.dur;
          self = a.self +. (s.dur -. c) })
    tr.spans;
  tbl

let find_agg tbl name =
  Option.value ~default:{ calls = 0; total = 0.; self = 0. }
    (Hashtbl.find_opt tbl name)

(* Mean seconds per call of a span name ([0.] when never called). *)
let per_call tbl name =
  let a = find_agg tbl name in
  if a.calls = 0 then 0. else a.total /. float_of_int a.calls

(* Sum of the top-level spans' durations: the traced time the layers
   account for. *)
let top_level_total tr =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. s.dur else acc)
    0. tr.spans

(* Chrome trace-event JSON of every recorded span, one process per phase. *)
let write_trace path tracers =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let t0 =
    List.fold_left
      (fun acc tr ->
        List.fold_left (fun a s -> Float.min a s.start) acc tr.spans)
      infinity tracers
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  List.iteri
    (fun pid tr ->
      List.iter
        (fun s ->
          if not !first then output_string oc ",\n";
          first := false;
          Printf.fprintf oc
            "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d}}"
            s.name tr.phase pid
            ((s.start -. t0) *. 1e6)
            (s.dur *. 1e6) s.op s.id s.parent)
        (List.rev tr.spans))
    tracers;
  output_string oc "\n]}\n";
  close_out oc

(* ---- order statistics ---- *)

(* Linearly interpolated quantile, [q] in [0, 1]. *)
let quantile xs q =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let f = pos -. float_of_int i in
      if i + 1 < n then a.(i) +. (f *. (a.(i + 1) -. a.(i))) else a.(i)

let median xs = quantile xs 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b

(* Runs a set-up [reps] times, releasing each result before the next run
   starts; returns the median time and the last result. *)
let repeat_setup ~reps ?(release = ignore) f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    Option.iter release !last;
    let r, dt = timed f in
    times := dt :: !times;
    last := Some r
  done;
  (median !times, Option.get !last)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* ---- operations ---- *)

type op = {
  latency : float;
  work : float;  (** units the operation completed (inputs, batches) *)
}

(* End-to-end metrics of a run whose operations execute one at a time:
   throughput is work per second of operation time, latency quantiles are
   over every operation of the timed window. *)
let sequential_e2e ops =
  let lat = List.map (fun o -> o.latency) ops in
  [ m "throughput_rps" "1/s"
      (List.fold_left (fun a o -> a +. o.work) 0. ops /. List.fold_left ( +. ) 0. lat);
    m "latency_p50_ms" "ms" (1000. *. quantile lat 0.5);
    m "latency_p90_ms" "ms" (1000. *. quantile lat 0.9) ]

(* ---- GC ---- *)

type gc_mark = { words : float; majors : int }

(* [Gc.quick_stat] sums over every domain of the process. *)
let gc_mark () =
  let s = Gc.quick_stat () in
  { words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    majors = s.Gc.major_collections }

let mb words = words *. float_of_int (Sys.word_size / 8) /. 1048576.

let alloc_mb a b = mb (b.words -. a.words)

let heap_peak_mb () = mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)

(* ---- outputs ---- *)

let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun p q -> Int64.bits_of_float p = Int64.bits_of_float q)
       a b

(* What a workload hands back to [Main] for the report and result lines. *)
type outcome = {
  attempted : int;  (** operations attempted in the timed window *)
  failed : int;     (** operations that failed, were rejected or were wrong *)
  checked : int;    (** outputs compared against a reference *)
  metrics : metric list;
  notes : (string * float) list;  (** context for the report line only *)
}
