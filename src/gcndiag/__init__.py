"""Diagnostics for semi-supervised node classification: when does graph
convolution beat feature-only baselines, and for which classes."""

from .dataset_io import Dataset, load_dataset, save_dataset
from .errors import GcnDiagError, InputError, ShapeError
from .gcn import (GcnConfig, GcnParams, TrainedGcn, gcn_forward,
                  gcn_loss_and_grad, gcn_predict, gradient_check, train_gcn)
from .graph import Graph, NormAdj, build_graph, normalized_adjacency, spmm
from .homophily import (edge_homophily, homophily_report,
                        neighbor_distribution, top_foreign_neighbor)
from .metrics import ModelScores, confusion_matrix, delta_f1, retention, score
from .baselines import (LinearModel, fit_baseline, linear_predict, train_logreg,
                        train_svm)
from .protocol import (CellResult, ExperimentResult, SplitSpec,
                       ablate_features, apply_masking, carve_validation,
                       derive_seed, make_split, run_grid, stratified_split)
from .quadrant import QUADRANT_NAMES, assign_quadrants, averaged_class_metrics
from .report import build_report, load_report, save_report
from .synth import SyntheticSpec, generate_features, generate_graph

__version__ = "0.1.0"
