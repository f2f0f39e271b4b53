(* Section VI-C1 "Overheads": GRANII's one-time runtime costs — graph
   feature extraction (measured on the host) and composition selection —
   compared against a single GNN iteration, plus the effect of offline
   pruning on selection work (ablation from DESIGN.md). *)

open Bench_common
open Granii_core
module Mp = Granii_mp

let run () =
  section "Overheads: feature extraction + composition selection (one-time)";
  Printf.printf "%-4s | %12s %12s | %16s | %14s\n" "G" "featurize" "selection"
    "vs 1 iter (A100)" "cands (full)";
  hr ();
  let model = Mp.Mp_models.gcn in
  let low, comp, _ = compiled model ~binned:false in
  let forest = Enumerate.forest low.Mp.Lower.ir in
  let all_candidates =
    Codegen.compile
      ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:false)
      ~name:"GCN_noprune"
      { Prune.promoted =
          List.map (fun t -> { Prune.tree = t; scenarios = Dim.all_scenarios }) forest;
        n_enumerated = List.length forest;
        n_pruned = 0 }
  in
  let profile = Granii_hw.Hw_profile.a100 in
  let cm = oracle profile in
  List.iter
    (fun (info, graph) ->
      (* measure real host overheads *)
      let f, t_feat = Granii_hw.Timer.measure_wall (fun () -> Featurizer.extract graph) in
      let k_in = 256 and k_out = 256 in
      let env = env_of graph ~k_in ~k_out in
      let choice = Selector.select ~oracle:cm ~feats:f ~env ~iterations:100 comp in
      let t_sel = choice.Selector.selection_time in
      let choice_full =
        Selector.select ~oracle:cm ~feats:f ~env ~iterations:100 all_candidates
      in
      let iter_t =
        Granii_gnn.Trainer.inference_time ~profile ~graph ~env ~iterations:1
          choice.Selector.candidate.Codegen.plan
      in
      Printf.printf "%-4s | %9.3f ms %9.3f ms | %13.2f it | %8.3f ms (%d)\n"
        info.Granii_graph.Datasets.key (ms t_feat) (ms t_sel)
        ((t_feat +. t_sel) /. iter_t)
        (ms choice_full.Selector.selection_time)
        choice_full.Selector.considered)
    (datasets ());
  hr ();
  Printf.printf
    "Both overheads are incurred once per input (paper: <= 7 ms GPU, 0.42 s CPU;\n\
     <= 4.4x of one GPU iteration). 'cands (full)' = selection without offline\n\
     pruning: the pruning ablation -- more candidates inspected at runtime.\n"
