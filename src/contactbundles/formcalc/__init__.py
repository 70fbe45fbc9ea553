"""Symbolic differential 1-forms: parsing, exterior calculus, model catalog."""

from .expr import (Expr, FormSyntaxError, UnknownVariableError, diff, normalize, parse_expr,
                   render, subst)
from .forms import (MAX_GRID_POINTS, Chart, ContactReport, DegenerateKernel, OneForm,
                    SlopeOutOfRange, TorusSlope, TwoForm, characteristic_slope_on_torus,
                    contact_sign, exterior_derivative, forms_equal_numeric, grid_counts,
                    parse_form, parse_form_file, pullback, r_of_slope, volume_coefficient)
from .models import (HopfCheck, ModelForm, clairaut_band_form, connection_family,
                     fiber_rotation_form, fiber_tube_pullback, hopf_invariance_check,
                     hopf_plane_field_form, model_library, solid_torus_universal_form,
                     three_torus_form, torus_wrapping_pullback)

__all__ = [
    "Expr", "FormSyntaxError", "UnknownVariableError", "diff", "normalize", "parse_expr", "render",
    "subst",
    "MAX_GRID_POINTS", "Chart", "ContactReport", "DegenerateKernel", "OneForm", "SlopeOutOfRange",
    "TorusSlope", "TwoForm", "characteristic_slope_on_torus", "contact_sign",
    "exterior_derivative", "forms_equal_numeric", "grid_counts", "parse_form",
    "parse_form_file", "pullback", "r_of_slope", "volume_coefficient",
    "HopfCheck", "ModelForm", "clairaut_band_form", "connection_family",
    "fiber_rotation_form", "fiber_tube_pullback", "hopf_invariance_check",
    "hopf_plane_field_form", "model_library", "solid_torus_universal_form",
    "three_torus_form", "torus_wrapping_pullback",
]
