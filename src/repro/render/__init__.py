"""Rendering substrate: camera, ray caster, subimages, sequential oracle."""

from .camera import Camera, rotation_matrix
from .image import SubImage
from .raycast import render_full, render_subvolume
from .reference import composite_sequential, luminance

__all__ = [
    "Camera",
    "SubImage",
    "composite_sequential",
    "luminance",
    "render_full",
    "render_subvolume",
    "rotation_matrix",
]
