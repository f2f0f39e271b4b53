module Timer = Granii_hw.Timer

(* ---- hierarchical span recorder ---- *)

module Trace = struct
  type span = {
    name : string;
    cat : string;
    depth : int;
    ts : float;              (* wall seconds at enter, absolute *)
    mutable dur : float;     (* seconds; < 0 while the span is open *)
    mutable attrs : (string * string) list;
  }

  type t = {
    epoch : float;
    mutable spans_rev : span list;  (* every entered span, newest first *)
    mutable n : int;
    mutable stack : span list;      (* open spans, innermost first *)
  }

  let create () =
    { epoch = Timer.wall (); spans_rev = []; n = 0; stack = [] }

  let count t = t.n
  let open_spans t = List.length t.stack

  let enter t ?(cat = "granii") name =
    let sp =
      { name;
        cat;
        depth = List.length t.stack;
        ts = Timer.wall ();
        dur = -1.;
        attrs = [] }
    in
    t.spans_rev <- sp :: t.spans_rev;
    t.n <- t.n + 1;
    t.stack <- sp :: t.stack;
    sp

  (* Close [sp], closing any still-open descendant first so the recorder
     stays balanced even when a callee leaked a span (e.g. an exception
     unwound past a manual enter). *)
  let exit_ t ?(attrs = []) ?dur sp =
    let close s d = if s.dur < 0. then s.dur <- d in
    let rec pop () =
      match t.stack with
      | [] -> ()
      | s :: rest ->
          t.stack <- rest;
          if s == sp then begin
            (match dur with
            | Some d -> close s d
            | None -> close s (Timer.wall () -. s.ts));
            s.attrs <- attrs @ s.attrs
          end
          else begin
            close s (Timer.wall () -. s.ts);
            pop ()
          end
    in
    if List.exists (fun s -> s == sp) t.stack then pop ()

  let with_span t ?cat ?(attrs = []) name f =
    let sp = enter t ?cat name in
    match f () with
    | x ->
        exit_ t ~attrs sp;
        x
    | exception e ->
        exit_ t ~attrs:(("error", Printexc.to_string e) :: attrs) sp;
        raise e

  let add_attrs sp attrs = sp.attrs <- attrs @ sp.attrs

  let ordered t = List.rev t.spans_rev

  let dur_of sp = Float.max 0. sp.dur

  (* name -> (count, total seconds), sorted by descending total *)
  let aggregate t =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun sp ->
        let c, s =
          match Hashtbl.find_opt tbl sp.name with
          | Some (c, s) -> (c, s)
          | None -> (0, 0.)
        in
        Hashtbl.replace tbl sp.name (c + 1, s +. dur_of sp))
      (ordered t);
    Hashtbl.fold (fun name (c, s) acc -> (name, c, s) :: acc) tbl []
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

  let json_escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* Chrome trace_event format: one complete ("ph":"X") event per span,
     timestamps in microseconds relative to the trace epoch. Loadable by
     chrome://tracing and Perfetto. *)
  let to_chrome_json t =
    let b = Buffer.create 4096 in
    Buffer.add_string b "[";
    let first = ref true in
    List.iter
      (fun sp ->
        if not !first then Buffer.add_string b ",";
        first := false;
        Buffer.add_string b
          (Printf.sprintf
             "\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \
              \"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": 0"
             (json_escape sp.name) (json_escape sp.cat)
             ((sp.ts -. t.epoch) *. 1e6)
             (dur_of sp *. 1e6));
        (match sp.attrs with
        | [] -> ()
        | attrs ->
            Buffer.add_string b ", \"args\": {";
            List.iteri
              (fun i (k, v) ->
                if i > 0 then Buffer.add_string b ", ";
                Buffer.add_string b
                  (Printf.sprintf "\"%s\": \"%s\"" (json_escape k)
                     (json_escape v)))
              attrs;
            Buffer.add_string b "}");
        Buffer.add_string b "}")
      (ordered t);
    Buffer.add_string b "\n]\n";
    Buffer.contents b

  (* Folded flamegraph lines: "root;child;leaf <self-time-in-us>", one line
     per distinct stack, mergeable by flamegraph.pl / speedscope. Self time
     is a span's duration minus its direct children's. *)
  let to_folded t =
    let totals = Hashtbl.create 16 in
    let add path self =
      let v = try Hashtbl.find totals path with Not_found -> 0. in
      Hashtbl.replace totals path (v +. Float.max 0. self)
    in
    (* stack of (span, children-duration accumulator, path) *)
    let stack = ref [] in
    let retire (sp, children, path) = add path (dur_of sp -. !children) in
    let rec unwind depth =
      match !stack with
      | ((sp, _, _) as top) :: rest when sp.depth >= depth ->
          retire top;
          stack := rest;
          (match rest with
          | (_, children, _) :: _ -> children := !children +. dur_of sp
          | [] -> ());
          unwind depth
      | _ -> ()
    in
    List.iter
      (fun sp ->
        unwind sp.depth;
        let path =
          match !stack with
          | (_, _, parent) :: _ -> parent ^ ";" ^ sp.name
          | [] -> sp.name
        in
        stack := (sp, ref 0., path) :: !stack)
      (ordered t);
    unwind 0;
    let lines =
      Hashtbl.fold
        (fun path self acc ->
          (Printf.sprintf "%s %.0f" path (self *. 1e6)) :: acc)
        totals []
      |> List.sort compare
    in
    String.concat "\n" lines ^ if lines = [] then "" else "\n"
end

(* ---- log-bucketed histograms ---- *)

module Histogram = struct
  (* Each decade between the bounds below is split into [sub_buckets]
     log-uniform sub-buckets. The bounds are precomputed once and every
     decade bound appears among them verbatim, so a sample's decade under
     the exporters' rule ([v <= bound]) is exactly the decade of its slot.
     Slot 0 holds the samples <= 1e-6, slot i the samples in
     (bounds.(i-1), bounds.(i)], and the last slot those above 10. *)
  let decades = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10. |]
  let sub_buckets = 64
  let rel_error = (10. ** (1. /. float_of_int sub_buckets)) -. 1.

  let bounds =
    Array.init
      (((Array.length decades - 1) * sub_buckets) + 1)
      (fun i ->
        if i mod sub_buckets = 0 then decades.(i / sub_buckets)
        else 10. ** (-6. +. (float_of_int i /. float_of_int sub_buckets)))

  let n_bounds = Array.length bounds

  type t = {
    mutable count : int;
    mutable sum : float;
    mutable mn : float;
    mutable mx : float;
    slots : int array;  (* non-cumulative; one per bound, plus overflow *)
  }

  let create () =
    { count = 0;
      sum = 0.;
      mn = infinity;
      mx = neg_infinity;
      slots = Array.make (n_bounds + 1) 0 }

  (* the smallest i with v <= bounds.(i); n_bounds when v > 10 *)
  let slot_of v =
    let lo = ref 0 and hi = ref n_bounds in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let add t v =
    if Float.is_finite v then begin
      t.count <- t.count + 1;
      t.sum <- t.sum +. v;
      if v < t.mn then t.mn <- v;
      if v > t.mx then t.mx <- v;
      let i = slot_of v in
      t.slots.(i) <- t.slots.(i) + 1
    end

  let count t = t.count
  let sum t = t.sum
  let minimum t = if t.count = 0 then nan else t.mn
  let maximum t = if t.count = 0 then nan else t.mx

  (* Nearest rank r = ceil (q n). The estimate interpolates linearly, by
     r's position among the samples of the slot holding it, across that
     slot's edges narrowed to [min, max]. The exact value lies inside the
     same narrowed edges, so the two are within one sub-bucket ratio. *)
  let quantile t q =
    if t.count = 0 then nan
    else begin
      let n = t.count in
      let r = int_of_float (Float.ceil (q *. float_of_int n)) in
      let r = max 1 (min n r) in
      let i = ref 0 and below = ref 0 in
      while !below + t.slots.(!i) < r do
        below := !below + t.slots.(!i);
        incr i
      done;
      let i = !i in
      let lo = if i = 0 then t.mn else Float.max t.mn bounds.(i - 1) in
      let hi = if i = n_bounds then t.mx else Float.min t.mx bounds.(i) in
      let frac = float_of_int (r - !below) /. float_of_int t.slots.(i) in
      Float.min hi (Float.max lo (lo +. (frac *. (hi -. lo))))
    end

  let merge_all hs =
    let m = create () in
    List.iter
      (fun h ->
        m.count <- m.count + h.count;
        m.sum <- m.sum +. h.sum;
        m.mn <- Float.min m.mn h.mn;
        m.mx <- Float.max m.mx h.mx;
        Array.iteri (fun i c -> m.slots.(i) <- m.slots.(i) + c) h.slots)
      hs;
    m

  let merge a b = merge_all [ a; b ]

  (* Slot i >= 1 lies in decade ceil (i / sub_buckets); slot 0 is the first
     decade and the overflow slot lands one past the last. *)
  let decade_counts t =
    let d = Array.make (Array.length decades + 1) 0 in
    Array.iteri
      (fun i c ->
        let j = (i + sub_buckets - 1) / sub_buckets in
        d.(j) <- d.(j) + c)
      t.slots;
    List.mapi
      (fun j c ->
        ((if j < Array.length decades then decades.(j) else infinity), c))
      (Array.to_list d)
end

(* ---- metrics registry ---- *)

module Metrics = struct
  type t = {
    counters : (string, int ref) Hashtbl.t;
    gauges : (string, float ref) Hashtbl.t;
    hists : (string, Histogram.t) Hashtbl.t;
  }

  let create () =
    { counters = Hashtbl.create 16;
      gauges = Hashtbl.create 16;
      hists = Hashtbl.create 16 }

  (* Labeled series are stored under an encoded key: the family name plus
     the sorted label pairs joined on unprintable separators (which never
     appear in metric names — those are dotted identifiers from code).
     Unlabeled metrics keep their plain name as the key, so every existing
     call site and lookup is unaffected. *)
  let label_sep = '\x00'
  let kv_sep = '\x01'

  let encode_key name labels =
    match labels with
    | [] -> name
    | labels ->
        let labels = List.sort compare labels in
        let b = Buffer.create 32 in
        Buffer.add_string b name;
        List.iter
          (fun (k, v) ->
            Buffer.add_char b label_sep;
            Buffer.add_string b k;
            Buffer.add_char b kv_sep;
            Buffer.add_string b v)
          labels;
        Buffer.contents b

  let decode_key key =
    match String.index_opt key label_sep with
    | None -> (key, [])
    | Some i ->
        let name = String.sub key 0 i in
        let rest = String.sub key (i + 1) (String.length key - i - 1) in
        let labels =
          List.map
            (fun part ->
              match String.index_opt part kv_sep with
              | Some j ->
                  ( String.sub part 0 j,
                    String.sub part (j + 1) (String.length part - j - 1) )
              | None -> (part, ""))
            (String.split_on_char label_sep rest)
        in
        (name, labels)

  (* Label values per the Prometheus exposition format: backslash, double
     quote and newline must be escaped inside the quoted value. *)
  let escape_label_value v =
    let b = Buffer.create (String.length v + 2) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b

  let display_key key =
    let name, labels = decode_key key in
    match labels with
    | [] -> name
    | labels ->
        name ^ "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
               labels)
        ^ "}"

  let add t name n =
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add t.counters name (ref n)

  let set_gauge t name v =
    match Hashtbl.find_opt t.gauges name with
    | Some r -> r := v
    | None -> Hashtbl.add t.gauges name (ref v)

  let set_gauge_labeled t name ~labels v = set_gauge t (encode_key name labels) v

  let observe t name v =
    let h =
      match Hashtbl.find_opt t.hists name with
      | Some h -> h
      | None ->
          let h = Histogram.create () in
          Hashtbl.add t.hists name h;
          h
    in
    Histogram.add h v

  let counter_value t name =
    match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

  let gauge_value t name =
    match Hashtbl.find_opt t.gauges name with Some r -> Some !r | None -> None

  let stats h = Histogram.(count h, sum h, minimum h, maximum h)

  let hist_stats t name = Option.map stats (Hashtbl.find_opt t.hists name)

  let sorted_keys tbl =
    Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

  (* Listings render labeled keys as [name{k="v",...}] with escaped label
     values; unlabeled keys are returned verbatim. *)
  let counters t =
    List.map (fun k -> (display_key k, counter_value t k)) (sorted_keys t.counters)
  let gauges t =
    List.map
      (fun k -> (display_key k, match gauge_value t k with Some v -> v | None -> 0.))
      (sorted_keys t.gauges)
  let histograms t =
    List.filter_map
      (fun k ->
        match Hashtbl.find_opt t.hists k with
        | Some h -> Some (display_key k, stats h)
        | None -> None)
      (sorted_keys t.hists)

  let esc = Trace.json_escape

  let fnum x =
    if Float.is_finite x then Printf.sprintf "%.9g" x
    else Printf.sprintf "\"%s\"" (string_of_float x)

  let to_json t =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n  \"counters\": {";
    List.iteri
      (fun i k ->
        if i > 0 then Buffer.add_string b ",";
        Buffer.add_string b
          (Printf.sprintf "\n    \"%s\": %d" (esc (display_key k)) (counter_value t k)))
      (sorted_keys t.counters);
    Buffer.add_string b "\n  },\n  \"gauges\": {";
    List.iteri
      (fun i k ->
        if i > 0 then Buffer.add_string b ",";
        let v = match gauge_value t k with Some v -> v | None -> 0. in
        Buffer.add_string b
          (Printf.sprintf "\n    \"%s\": %s" (esc (display_key k)) (fnum v)))
      (sorted_keys t.gauges);
    Buffer.add_string b "\n  },\n  \"histograms\": {";
    List.iteri
      (fun i k ->
        if i > 0 then Buffer.add_string b ",";
        let h = Hashtbl.find t.hists k in
        let count, sum, min_, max_ = stats h in
        Buffer.add_string b
          (Printf.sprintf
             "\n    \"%s\": {\"count\": %d, \"sum\": %s, \"min\": %s, \
              \"max\": %s, \"buckets\": [%s]}"
             (esc (display_key k)) count (fnum sum)
             (fnum (if count = 0 then 0. else min_))
             (fnum (if count = 0 then 0. else max_))
             (String.concat ", "
                (List.map
                   (fun (_, c) -> string_of_int c)
                   (Histogram.decade_counts h)))))
      (sorted_keys t.hists);
    Buffer.add_string b "\n  }\n}\n";
    Buffer.contents b

  (* Prometheus text exposition format. Metric names are sanitized to the
     [a-zA-Z0-9_] alphabet and prefixed "granii_". *)
  let prom_name name =
    "granii_"
    ^ String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
          | _ -> '_')
        name

  let prom_label_name k =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      k

  (* Group sorted encoded keys into (family, [(key, labels); ...]) runs.
     Encoded keys of one family sort contiguously because the separator
     byte is below every printable character. *)
  let families keys =
    List.fold_left
      (fun acc k ->
        let name, labels = decode_key k in
        match acc with
        | (n, ks) :: rest when String.equal n name ->
            (n, (k, labels) :: ks) :: rest
        | _ -> (name, [ (k, labels) ]) :: acc)
      [] keys
    |> List.rev_map (fun (n, ks) -> (n, List.rev ks))

  let prom_labels labels =
    match labels with
    | [] -> ""
    | labels ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "%s=\"%s\"" (prom_label_name k)
                   (escape_label_value v))
               labels)
        ^ "}"

  let to_prometheus t =
    let b = Buffer.create 1024 in
    (* every family gets exactly one # HELP and one # TYPE line, before any
       of its samples, as the exposition format requires *)
    let preamble fam kind =
      let n = prom_name fam in
      Buffer.add_string b
        (Printf.sprintf "# HELP %s GRANII %s %s\n" n kind fam);
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" n kind);
      n
    in
    List.iter
      (fun (fam, samples) ->
        let n = preamble fam "counter" in
        List.iter
          (fun (k, labels) ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %d\n" n (prom_labels labels)
                 (counter_value t k)))
          samples)
      (families (sorted_keys t.counters));
    List.iter
      (fun (fam, samples) ->
        let n = preamble fam "gauge" in
        List.iter
          (fun (k, labels) ->
            let v = match gauge_value t k with Some v -> v | None -> 0. in
            Buffer.add_string b
              (Printf.sprintf "%s%s %.9g\n" n (prom_labels labels) v))
          samples)
      (families (sorted_keys t.gauges));
    List.iter
      (fun (fam, samples) ->
        let n = preamble fam "histogram" in
        List.iter
          (fun (k, labels) ->
            let h = Hashtbl.find t.hists k in
            let with_le le =
              prom_labels (labels @ [ ("le", le) ])
            in
            let plain = prom_labels labels in
            let cum = ref 0 in
            List.iter
              (fun (bound, c) ->
                cum := !cum + c;
                let le =
                  if Float.is_finite bound then Printf.sprintf "%.0e" bound
                  else "+Inf"
                in
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" n (with_le le) !cum))
              (Histogram.decade_counts h);
            Buffer.add_string b
              (Printf.sprintf "%s_sum%s %.9g\n" n plain (Histogram.sum h));
            Buffer.add_string b
              (Printf.sprintf "%s_count%s %d\n" n plain (Histogram.count h)))
          samples)
      (families (sorted_keys t.hists));
    Buffer.contents b
end

(* ---- cost-model accuracy monitor ---- *)

module Cost_monitor = struct
  (* Per-primitive (predicted, measured) pairs in bounded storage, so a long
     profiling sweep cannot grow the monitor without bound. Below
     [max_pairs] every pair is held exactly, in recording order. Past the
     cap the series switches to reservoir sampling (Vitter's Algorithm R,
     driven by a deterministic per-primitive xorshift64 stream): the n-th
     pair replaces a uniformly random slot with probability max_pairs/n, so
     a long-running serving process keeps a statistically representative
     sample of its whole history instead of freezing on (or thrashing
     through) whichever pairs arrived in one window. [held] orders the
     sample by recording index, so "newest third" holdout splits remain
     meaningful. *)
  let max_pairs = 4096

  type series = {
    mutable buf : (float * float) array;  (* grows by doubling to max_pairs *)
    mutable seq : int array;              (* recording index of each held pair *)
    mutable len : int;                    (* pairs currently held *)
    mutable n : int;                      (* pairs ever recorded *)
    mutable rng : int64;                  (* xorshift64 state, per-series *)
  }

  type t = (string, series) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let xorshift64 x =
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    Int64.logxor x (Int64.shift_left x 17)

  let rand_below s bound =
    s.rng <- xorshift64 s.rng;
    Int64.to_int (Int64.rem (Int64.logand s.rng Int64.max_int) (Int64.of_int bound))

  let record (t : t) ~prim ~predicted ~measured =
    let s =
      match Hashtbl.find_opt t prim with
      | Some s -> s
      | None ->
          let seed = Int64.of_int ((Hashtbl.hash prim lsl 1) lor 1) in
          let s =
            { buf = Array.make 64 (0., 0.);
              seq = Array.make 64 0;
              len = 0;
              n = 0;
              rng = seed }
          in
          Hashtbl.add t prim s;
          s
    in
    let idx = s.n in
    s.n <- s.n + 1;
    if s.len < max_pairs then begin
      let cap = Array.length s.buf in
      if s.len = cap then begin
        let cap' = min max_pairs (2 * cap) in
        let buf' = Array.make cap' (0., 0.) in
        let seq' = Array.make cap' 0 in
        Array.blit s.buf 0 buf' 0 s.len;
        Array.blit s.seq 0 seq' 0 s.len;
        s.buf <- buf';
        s.seq <- seq'
      end;
      s.buf.(s.len) <- (predicted, measured);
      s.seq.(s.len) <- idx;
      s.len <- s.len + 1
    end
    else begin
      (* reservoir: keep the new pair with probability max_pairs/n, in a
         uniformly random slot *)
      let j = rand_below s s.n in
      if j < max_pairs then begin
        s.buf.(j) <- (predicted, measured);
        s.seq.(j) <- idx
      end
    end

  (* Snapshot of the pairs currently held, ordered by recording index
     (oldest first). *)
  let held (s : series) =
    let ix = Array.init s.len (fun i -> i) in
    Array.sort (fun a b -> compare s.seq.(a) s.seq.(b)) ix;
    Array.to_list (Array.map (fun i -> s.buf.(i)) ix)

  let series_pairs (t : t) prim =
    match Hashtbl.find_opt t prim with None -> [] | Some s -> held s

  let prims (t : t) =
    Hashtbl.fold (fun prim _ acc -> prim :: acc) t [] |> List.sort compare

  let runs (t : t) prim =
    match Hashtbl.find_opt t prim with None -> 0 | Some s -> s.n
end

(* ---- lock-free per-domain event journal ---- *)

module Journal = struct
  type kind =
    | Step
    | Request
    | Plan_cache_hit
    | Plan_cache_miss
    | Plan_cache_invalidate
    | Calibrate
    | Drift
    | Backpressure
    | Slo_breach
    | Mark

  let kinds =
    [| Step; Request; Plan_cache_hit; Plan_cache_miss;
       Plan_cache_invalidate; Calibrate; Drift; Backpressure; Slo_breach;
       Mark |]

  let kind_code = function
    | Step -> 0
    | Request -> 1
    | Plan_cache_hit -> 2
    | Plan_cache_miss -> 3
    | Plan_cache_invalidate -> 4
    | Calibrate -> 5
    | Drift -> 6
    | Backpressure -> 7
    | Slo_breach -> 8
    | Mark -> 9

  let kind_of_code c =
    if c >= 0 && c < Array.length kinds then kinds.(c) else Mark

  let kind_to_string = function
    | Step -> "step"
    | Request -> "request"
    | Plan_cache_hit -> "plan_cache_hit"
    | Plan_cache_miss -> "plan_cache_miss"
    | Plan_cache_invalidate -> "plan_cache_invalidate"
    | Calibrate -> "calibrate"
    | Drift -> "drift"
    | Backpressure -> "backpressure"
    | Slo_breach -> "slo_breach"
    | Mark -> "mark"

  type entry = {
    e_seq : int;     (* per-domain monotonic sequence number, from 0 *)
    e_domain : int;  (* writer domain id *)
    e_t : float;     (* Timer.wall at record time *)
    e_kind : kind;
    e_tag : string;
    e_v : float;
  }

  (* One bounded ring per writer domain, written WITHOUT any lock: the
     columns are parallel arrays of unboxed ints/floats plus a string
     column, so recording an event is four array stores and a counter bump —
     no allocation, no synchronization. [rseq] counts every event the
     domain ever recorded; slot (rseq mod capacity) is overwritten, oldest
     first, and (rseq - capacity) is exactly how many events were lost. *)
  type ring = {
    dom : int;
    mutable rseq : int;
    rk : int array;
    rt : float array;
    rv : float array;
    rtag : string array;
  }

  type t = {
    jcapacity : int;
    mutable rings : ring option array;  (* index = domain id *)
    mu : Mutex.t;  (* guards ring creation / array growth only (cold path) *)
  }

  let create ?(capacity = 1024) () =
    if capacity < 8 then invalid_arg "Journal.create: capacity must be >= 8";
    { jcapacity = capacity; rings = Array.make 8 None; mu = Mutex.create () }

  let capacity t = t.jcapacity

  (* Cold path: first event from this domain (or a domain id past the
     current array). The rings array only ever grows and growth copies
     every slot, so a writer racing with a grow still reaches its own ring
     through either array version. *)
  let install t dom =
    Mutex.lock t.mu;
    let rs = t.rings in
    let rs =
      if dom < Array.length rs then rs
      else begin
        let len = ref (Array.length rs) in
        while dom >= !len do
          len := 2 * !len
        done;
        let rs' = Array.make !len None in
        Array.blit rs 0 rs' 0 (Array.length rs);
        t.rings <- rs';
        rs'
      end
    in
    let r =
      match rs.(dom) with
      | Some r -> r
      | None ->
          let r =
            { dom;
              rseq = 0;
              rk = Array.make t.jcapacity 0;
              rt = Array.make t.jcapacity 0.;
              rv = Array.make t.jcapacity 0.;
              rtag = Array.make t.jcapacity "" }
          in
          rs.(dom) <- Some r;
          r
    in
    Mutex.unlock t.mu;
    r

  let record t kind ~tag ~v =
    let dom = (Domain.self () :> int) in
    let rs = t.rings in
    let r =
      if dom < Array.length rs then
        match Array.unsafe_get rs dom with
        | Some r -> r
        | None -> install t dom
      else install t dom
    in
    let i = r.rseq mod t.jcapacity in
    r.rk.(i) <- kind_code kind;
    r.rt.(i) <- Timer.wall ();
    r.rv.(i) <- v;
    r.rtag.(i) <- tag;
    r.rseq <- r.rseq + 1

  let fold_rings t f z =
    Mutex.lock t.mu;
    let acc =
      Array.fold_left
        (fun acc r -> match r with Some r -> f acc r | None -> acc)
        z t.rings
    in
    Mutex.unlock t.mu;
    acc

  let total t = fold_rings t (fun acc r -> acc + r.rseq) 0

  let dropped t =
    fold_rings t (fun acc r -> acc + max 0 (r.rseq - t.jcapacity)) 0

  (* Advisory snapshot of the currently-held entries, merged across domains
     by timestamp (ties broken by domain, then sequence). Concurrent
     writers may overwrite the oldest slots while the drain runs; drain
     after the writers quiesce when exact contents matter. *)
  let entries t =
    let acc =
      fold_rings t
        (fun acc r ->
          let seq = r.rseq in
          let len = min seq t.jcapacity in
          let out = ref acc in
          for i = seq - len to seq - 1 do
            let slot = i mod t.jcapacity in
            out :=
              { e_seq = i;
                e_domain = r.dom;
                e_t = r.rt.(slot);
                e_kind = kind_of_code r.rk.(slot);
                e_tag = r.rtag.(slot);
                e_v = r.rv.(slot) }
              :: !out
          done;
          !out)
        []
    in
    List.sort
      (fun a b ->
        match compare a.e_t b.e_t with
        | 0 -> (
            match compare a.e_domain b.e_domain with
            | 0 -> compare a.e_seq b.e_seq
            | c -> c)
        | c -> c)
      acc

  (* (kind, count) over the held entries, omitting zero kinds. *)
  let kind_counts t =
    let tbl = Array.make (Array.length kinds) 0 in
    List.iter
      (fun e ->
        let c = kind_code e.e_kind in
        tbl.(c) <- tbl.(c) + 1)
      (entries t);
    Array.to_list (Array.mapi (fun i c -> (kind_to_string kinds.(i), c)) tbl)
    |> List.filter (fun (_, c) -> c > 0)

  (* One JSON object per line (JSONL), entries in [entries] order. *)
  let to_jsonl t =
    let b = Buffer.create 4096 in
    List.iter
      (fun e ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"seq\": %d, \"domain\": %d, \"t\": %s, \"kind\": \"%s\", \
              \"tag\": \"%s\", \"v\": %s}\n"
             e.e_seq e.e_domain (Metrics.fnum e.e_t)
             (kind_to_string e.e_kind)
             (Trace.json_escape e.e_tag)
             (Metrics.fnum e.e_v)))
      (entries t);
    Buffer.contents b

  let pp_entry ppf e =
    Format.fprintf ppf "[d%d:%06d] %-22s %-28s %s" e.e_domain e.e_seq
      (kind_to_string e.e_kind)
      (if e.e_tag = "" then "-" else e.e_tag)
      (Metrics.fnum e.e_v)
end

(* ---- drift detectors ---- *)

module Drift = struct
  (* Two complementary tests over one scalar stream:

     - Page–Hinkley: fires when the cumulative deviation above the running
       mean (minus the insensitivity [delta]) exceeds [lambda] — catches
       sustained upward TRENDS against the stream's own history.
     - Sustained level: fires when the EWMA (smoothing [alpha]) stays above
       [level] for [patience] consecutive observations — catches streams
       that are wrong from the very start (e.g. a mis-anchored hardware
       profile), which present no trend for Page–Hinkley to see.

     Either test firing counts as drift; the detector then resets so it can
     re-arm against the post-correction stream. Nothing fires before
     [min_samples] observations. [level <= 0.] disables the level test;
     [lambda = infinity] disables Page–Hinkley. *)

  type t = {
    dname : string;
    delta : float;
    lambda : float;
    level : float;
    patience : int;
    min_samples : int;
    alpha : float;
    mutable n : int;
    mutable mean : float;
    mutable cum : float;      (* Page–Hinkley m_T *)
    mutable cum_min : float;  (* running min of m_T *)
    mutable ewma : float;
    mutable streak : int;
    mutable fires : int;      (* total firings over the detector's life *)
    mutable last_stat : float;  (* statistic value at the last firing *)
  }

  let create ?(delta = 0.005) ?(lambda = 25.) ?(level = 0.) ?(patience = 32)
      ?(min_samples = 32) ?(alpha = 0.1) name =
    if patience < 1 then invalid_arg "Drift.create: patience must be >= 1";
    if min_samples < 1 then
      invalid_arg "Drift.create: min_samples must be >= 1";
    if not (alpha > 0. && alpha <= 1.) then
      invalid_arg "Drift.create: alpha must be in (0, 1]";
    { dname = name;
      delta;
      lambda;
      level;
      patience;
      min_samples;
      alpha;
      n = 0;
      mean = 0.;
      cum = 0.;
      cum_min = 0.;
      ewma = 0.;
      streak = 0;
      fires = 0;
      last_stat = 0. }

  let name t = t.dname
  let fired t = t.fires
  let samples t = t.n
  let last_stat t = t.last_stat

  let reset t =
    t.n <- 0;
    t.mean <- 0.;
    t.cum <- 0.;
    t.cum_min <- 0.;
    t.ewma <- 0.;
    t.streak <- 0

  (* Feed one observation; [true] means drift fired (and the detector
     reset itself). *)
  let observe t x =
    if not (Float.is_finite x) then false
    else begin
      t.n <- t.n + 1;
      let n = float_of_int t.n in
      t.mean <- t.mean +. ((x -. t.mean) /. n);
      t.cum <- t.cum +. (x -. t.mean -. t.delta);
      if t.cum < t.cum_min then t.cum_min <- t.cum;
      t.ewma <-
        (if t.n = 1 then x else (t.alpha *. x) +. ((1. -. t.alpha) *. t.ewma));
      if t.level > 0. && t.ewma > t.level then t.streak <- t.streak + 1
      else t.streak <- 0;
      let ph = t.cum -. t.cum_min in
      let fire =
        t.n >= t.min_samples
        && (ph > t.lambda || (t.level > 0. && t.streak >= t.patience))
      in
      if fire then begin
        t.fires <- t.fires + 1;
        t.last_stat <- Float.max ph t.ewma;
        reset t
      end;
      fire
    end
end

(* ---- the sink threaded through the engine ---- *)

type t = {
  trace : Trace.t option;
  metrics : Metrics.t option;
  costmon : Cost_monitor.t option;
  journal : Journal.t option;
}

let disabled = { trace = None; metrics = None; costmon = None; journal = None }

let create ?(trace = true) ?(metrics = true) ?(costmon = true)
    ?(journal = true) ?journal_capacity () =
  { trace = (if trace then Some (Trace.create ()) else None);
    metrics = (if metrics then Some (Metrics.create ()) else None);
    costmon = (if costmon then Some (Cost_monitor.create ()) else None);
    journal =
      (if journal then Some (Journal.create ?capacity:journal_capacity ())
       else None) }

let enabled t =
  t.trace <> None || t.metrics <> None || t.costmon <> None
  || t.journal <> None

let span t ?cat ?attrs name f =
  match t.trace with
  | None -> f ()
  | Some tr -> Trace.with_span tr ?cat ?attrs name f

let count t name n =
  match t.metrics with None -> () | Some m -> Metrics.add m name n

let gauge t name v =
  match t.metrics with None -> () | Some m -> Metrics.set_gauge m name v

let observe t name v =
  match t.metrics with None -> () | Some m -> Metrics.observe m name v

(* Journal an event. Cold-path convenience: hot paths should guard on
   [t.journal <> None] BEFORE computing the tag/value so a disabled sink
   costs nothing (see Executor.step_observe for the idiom). *)
let event t kind ~tag ~v =
  match t.journal with None -> () | Some j -> Journal.record j kind ~tag ~v

(* ---- a small JSON reader and well-formedness checker ----

   Accepts exactly the JSON grammar (RFC 8259) and reports the failing byte
   offset. [parse] feeds bin/bench_gate.ml's artifact-vs-baseline diff;
   [validate] is [parse] with the value dropped, for the exporter tests and
   the CI telemetry checker. Numbers all land in [Num] (floats); \uXXXX
   escapes decode to UTF-8 without surrogate pairing. *)

module Json = struct
  exception Bad of int * string

  type value =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of value list
    | Obj of (string * value) list

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let bump () = incr pos in
    let fail msg = raise (Bad (!pos, msg)) in
    let rec ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          bump ();
          ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> bump ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal l = String.iter (fun c -> expect c) l in
    let utf8 b cp =
      if cp < 0x80 then Buffer.add_char b (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let string_ () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> bump ()
        | Some '\\' -> (
            bump ();
            match peek () with
            | Some '"' -> bump (); Buffer.add_char b '"'; go ()
            | Some '\\' -> bump (); Buffer.add_char b '\\'; go ()
            | Some '/' -> bump (); Buffer.add_char b '/'; go ()
            | Some 'b' -> bump (); Buffer.add_char b '\b'; go ()
            | Some 'f' -> bump (); Buffer.add_char b '\012'; go ()
            | Some 'n' -> bump (); Buffer.add_char b '\n'; go ()
            | Some 'r' -> bump (); Buffer.add_char b '\r'; go ()
            | Some 't' -> bump (); Buffer.add_char b '\t'; go ()
            | Some 'u' ->
                bump ();
                let cp = ref 0 in
                for _ = 1 to 4 do
                  (match peek () with
                  | Some ('0' .. '9' as c) ->
                      cp := (!cp * 16) + (Char.code c - Char.code '0')
                  | Some ('a' .. 'f' as c) ->
                      cp := (!cp * 16) + (Char.code c - Char.code 'a' + 10)
                  | Some ('A' .. 'F' as c) ->
                      cp := (!cp * 16) + (Char.code c - Char.code 'A' + 10)
                  | _ -> fail "bad \\u escape");
                  bump ()
                done;
                utf8 b !cp;
                go ()
            | _ -> fail "bad escape")
        | Some c when Char.code c < 0x20 -> fail "control char in string"
        | Some c ->
            bump ();
            Buffer.add_char b c;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      (match peek () with Some '-' -> bump () | _ -> ());
      let digits () =
        let saw = ref false in
        let rec go () =
          match peek () with
          | Some '0' .. '9' ->
              saw := true;
              bump ();
              go ()
          | _ -> ()
        in
        go ();
        if not !saw then fail "expected digit"
      in
      digits ();
      (match peek () with
      | Some '.' ->
          bump ();
          digits ()
      | _ -> ());
      (match peek () with
      | Some ('e' | 'E') ->
          bump ();
          (match peek () with Some ('+' | '-') -> bump () | _ -> ());
          digits ()
      | _ -> ());
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec value () =
      ws ();
      match peek () with
      | Some '{' ->
          bump ();
          ws ();
          if peek () = Some '}' then begin
            bump ();
            Obj []
          end
          else begin
            let rec members acc =
              ws ();
              let k = string_ () in
              ws ();
              expect ':';
              let v = value () in
              ws ();
              match peek () with
              | Some ',' ->
                  bump ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  bump ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected , or }"
            in
            Obj (members [])
          end
      | Some '[' ->
          bump ();
          ws ();
          if peek () = Some ']' then begin
            bump ();
            List []
          end
          else begin
            let rec elements acc =
              let v = value () in
              ws ();
              match peek () with
              | Some ',' ->
                  bump ();
                  elements (v :: acc)
              | Some ']' ->
                  bump ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ]"
            in
            List (elements [])
          end
      | Some '"' -> Str (string_ ())
      | Some 't' ->
          literal "true";
          Bool true
      | Some 'f' ->
          literal "false";
          Bool false
      | Some 'n' ->
          literal "null";
          Null
      | Some ('-' | '0' .. '9') -> Num (number ())
      | _ -> fail "expected a JSON value"
    in
    match
      let v = value () in
      ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad (at, msg) ->
        Error (Printf.sprintf "invalid JSON at byte %d: %s" at msg)

  let validate s = Result.map ignore (parse s)

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None
end
