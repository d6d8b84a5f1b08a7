"""Exact-arithmetic structural analysis of real Lie algebras: root systems,
Dynkin classification, and embedding procedures for tori and ad-nilpotent
subalgebras."""

from .errors import (CenterObstruction, DegenerateRoot, ExtensionDegreeTooHigh,
                     InvalidStructureConstants, LieEmbedError, NoCompactFound,
                     NoRealSemisimpleFound, NotAPositiveSystem, NotASubalgebra,
                     NotATorus, NotAbelianNilpotent, NotClosed, NotNilpotent, NotSplit,
                     ParseError, UnknownName, UnrecognizedBondPattern,
                     UnrecognizedDiagram, VariableMismatch)
from .exactlin import (ExactScalar, Rational, make_scalar, min_poly, rref,
                       symmetric_signature)
from .liecore import (JordanPair, LeviDecomposition, LieAlgebra, Subspace,
                      center, centralizer, classify_element, derived_algebra,
                      is_ad_nilpotent, is_negative_definite,
                      jordan_decomposition, killing_signature,
                      levi_decomposition, normalizer, radical,
                      restricted_killing_signature, subalgebra_generated,
                      torus_split)
from .rootsys import (DynkinDiagram, Root, RootSpaceDecomposition, bond,
                      conjugation_pairing, dynkin_type, is_positive,
                      restricted_roots, root_space_decomposition, simple_roots,
                      sl2_triple)
from .embed import (CartanData, EmbeddingTrace, embed_abelian_nilpotent,
                    embed_compact_torus, embed_nilpotent, embed_real_torus,
                    find_compact, find_real_semisimple, maximal_compact_split)
from .vecfield import (GeneratorCatalog, MPoly, PolyVectorField,
                       algebra_by_name, catalog_by_name, g2_catalog,
                       invariant_count, so_pq_generators, structure_constants,
                       vf_bracket, wave15_catalog, wave16_catalog)

__version__ = "0.1.0"
