module K = Granii_hw.Kernel_model

type datasets = (string * Granii_ml.Ml_dataset.t) list

let templates =
  [ Primitive.Gemm { m = Dim.N; k = Dim.Kin; n = Dim.Kout };
    Primitive.Gemm { m = Dim.N; k = Dim.Kout; n = Dim.Kin };
    Primitive.Gemm { m = Dim.N; k = Dim.Kin; n = Dim.One };
    Primitive.Spmm { k = Dim.Kin; weighted = false };
    Primitive.Spmm { k = Dim.Kout; weighted = false };
    Primitive.Spmm { k = Dim.Kin; weighted = true };
    Primitive.Spmm { k = Dim.Kout; weighted = true };
    Primitive.Dense_sparse_mm { m = Dim.Kin };
    Primitive.Sddmm_rank1;
    Primitive.Diag_scale { side = `Left };
    Primitive.Diag_scale { side = `Right };
    Primitive.Row_broadcast { k = Dim.Kin };
    Primitive.Row_broadcast { k = Dim.Kout };
    Primitive.Col_broadcast { k = Dim.Kin };
    Primitive.Col_broadcast { k = Dim.Kout };
    Primitive.Diag_combine;
    Primitive.Sparse_add { diag = true };
    Primitive.Sparse_add { diag = false };
    Primitive.Dense_add { m = Dim.N; k = Dim.Kout };
    Primitive.Edge_score { k = Dim.Kout };
    Primitive.Edge_softmax;
    Primitive.Dense_map { kind = Matrix_ir.Relu; m = Dim.N; k = Dim.Kout };
    Primitive.Degree { binned = true; power = Primitive.Inv_sqrt };
    Primitive.Degree { binned = false; power = Primitive.Inv_sqrt } ]

let embedding_grid = [ 32; 64; 128; 256; 512; 1024; 2048 ]

let collect ?(seed = 0) ?graphs ?sizes ?(threads_grid = [ 1 ]) ~profile () =
  let graphs =
    match graphs with
    | Some gs -> gs
    | None -> Granii_graph.Datasets.training_pool ~seed:(seed + 1000) ()
  in
  let sizes = match sizes with Some s -> s | None -> embedding_grid in
  let threads_grid = match threads_grid with [] -> [ 1 ] | g -> g in
  let acc : (string, (float array * float) list ref) Hashtbl.t = Hashtbl.create 16 in
  let sample_idx = ref 0 in
  List.iter
    (fun graph ->
      let base_feats = Granii_graph.Graph_features.extract graph in
      let n = Granii_graph.Graph.n_nodes graph in
      let nnz = Granii_graph.Graph.n_edges graph + n in
      List.iter
        (fun threads ->
          let feats = Featurizer.of_features ~threads base_feats in
          List.iter
            (fun k_in ->
              List.iter
                (fun k_out ->
                  let env = { Dim.n; nnz; k_in; k_out } in
                  List.iter
                    (fun template ->
                      incr sample_idx;
                      let time =
                        List.fold_left
                          (fun t kernel ->
                            t
                            +. K.time_noisy ~threads profile
                                 ~seed:(seed + !sample_idx) kernel)
                          0.
                          (Primitive.to_kernels env template)
                      in
                      let input =
                        Featurizer.primitive_input feats
                          ~dims:(Primitive.instantiated_dims env template)
                      in
                      let name = Primitive.name template in
                      let bucket =
                        match Hashtbl.find_opt acc name with
                        | Some b -> b
                        | None ->
                            let b = ref [] in
                            Hashtbl.add acc name b;
                            b
                      in
                      bucket := (input, log time) :: !bucket)
                    templates)
                sizes)
            sizes)
        threads_grid)
    graphs;
  Hashtbl.fold
    (fun name bucket out ->
      let samples = Array.of_list !bucket in
      let features = Array.map fst samples and labels = Array.map snd samples in
      (name, Granii_ml.Ml_dataset.make features labels) :: out)
    acc []

(* Concrete operand values for one primitive instance, built from a real
   graph and random dense data of the right shapes. *)
let measured_args (env : Dim.env) graph template =
  let module Ex = Executor in
  let module Dense = Granii_tensor.Dense in
  let n = env.Dim.n in
  let i = Dim.instantiate env in
  let adj = Granii_graph.Graph.with_self_loops graph in
  let adj_w = Granii_sparse.Csr.map_values Fun.id adj in
  let diag = Granii_graph.Graph.norm_inv_sqrt graph in
  let dense ?(seed = 1) rows cols = Ex.Vdense (Dense.random ~seed rows cols) in
  match template with
  | Primitive.Gemm { m; k; n = cols } -> [ dense (i m) (i k); dense ~seed:2 (i k) (i cols) ]
  | Primitive.Spmm { k; weighted } ->
      [ (if weighted then Ex.Vsparse adj_w else Ex.Vsparse adj); dense n (i k) ]
  | Primitive.Dense_sparse_mm { m } -> [ dense (i m) n; Ex.Vsparse adj ]
  | Primitive.Sddmm_rank1 -> [ Ex.Vdiag diag; Ex.Vsparse adj; Ex.Vdiag diag ]
  | Primitive.Diag_scale { side = `Left } -> [ Ex.Vdiag diag; Ex.Vsparse adj ]
  | Primitive.Diag_scale { side = `Right } -> [ Ex.Vsparse adj; Ex.Vdiag diag ]
  | Primitive.Row_broadcast { k } -> [ Ex.Vdiag diag; dense n (i k) ]
  | Primitive.Col_broadcast { k } ->
      [ dense n (i k); Ex.Vdiag (Granii_tensor.Vector.ones (i k)) ]
  | Primitive.Diag_combine -> [ Ex.Vdiag diag; Ex.Vdiag diag ]
  | Primitive.Sparse_add { diag = true } -> [ Ex.Vdiag diag; Ex.Vsparse adj ]
  | Primitive.Sparse_add { diag = false } -> [ Ex.Vsparse adj_w; Ex.Vsparse adj_w ]
  | Primitive.Dense_add { m; k } -> [ dense (i m) (i k); dense ~seed:2 (i m) (i k) ]
  | Primitive.Edge_score { k } ->
      [ Ex.Vsparse adj; dense n (i k); dense ~seed:2 (i k) 1; dense ~seed:3 (i k) 1 ]
  | Primitive.Edge_softmax -> [ Ex.Vsparse adj_w ]
  | Primitive.Dense_map { m; k; _ } -> [ dense (i m) (i k) ]
  | Primitive.Degree _ -> [ Ex.Vsparse adj ]

let collect_measured ?(seed = 0) ?graphs ?sizes ?(runs = 3) () =
  let graphs =
    match graphs with
    | Some gs -> gs
    | None ->
        let s k = seed + 2000 + k in
        [ Granii_graph.Generators.erdos_renyi ~seed:(s 1) ~n:512 ~avg_degree:8. ();
          Granii_graph.Generators.barabasi_albert ~seed:(s 2) ~n:1024 ~m:4 ();
          Granii_graph.Generators.rmat ~seed:(s 3) ~scale:10 ~edge_factor:16 ();
          Granii_graph.Generators.grid2d ~seed:(s 4) ~rows:32 ~cols:32 ();
          Granii_graph.Generators.mycielskian ~levels:9 () ]
  in
  let sizes = match sizes with Some s -> s | None -> [ 8; 16; 32; 64 ] in
  let acc : (string, (float array * float) list ref) Hashtbl.t = Hashtbl.create 16 in
  (* one arena for the whole sweep: after the warmup run every repetition of
     a primitive reuses the previous repetition's output buffers, so the
     measured times are steady-state times, not allocator times *)
  let ws = Granii_tensor.Workspace.create () in
  List.iter
    (fun graph ->
      let feats =
        Featurizer.of_features (Granii_graph.Graph_features.extract graph)
      in
      let n = Granii_graph.Graph.n_nodes graph in
      let nnz = Granii_graph.Graph.n_edges graph + n in
      List.iter
        (fun k_in ->
          List.iter
            (fun k_out ->
              let env = { Dim.n; nnz; k_in; k_out } in
              List.iter
                (fun template ->
                  let args = measured_args env graph template in
                  let time =
                    Granii_hw.Timer.measure_n_wall ~warmup:1 ~n:runs (fun () ->
                        Granii_tensor.Workspace.reclaim ws;
                        Executor.apply ~ws template graph args)
                  in
                  (* clamp below the clock resolution so log stays finite *)
                  let time = Float.max time 1e-9 in
                  let input =
                    Featurizer.primitive_input feats
                      ~dims:(Primitive.instantiated_dims env template)
                  in
                  let name = Primitive.name template in
                  let bucket =
                    match Hashtbl.find_opt acc name with
                    | Some b -> b
                    | None ->
                        let b = ref [] in
                        Hashtbl.add acc name b;
                        b
                  in
                  bucket := (input, log time) :: !bucket)
                templates)
            sizes)
        sizes)
    graphs;
  Hashtbl.fold
    (fun name bucket out ->
      let samples = Array.of_list !bucket in
      let features = Array.map fst samples and labels = Array.map snd samples in
      (name, Granii_ml.Ml_dataset.make features labels) :: out)
    acc []
